//! Offline stand-in: empty. The workspace manifest names `serde_json`, so it must resolve, but nothing `oe-e2e` builds calls into it.
