package simsvc

// Key is the spec's content address: FNV-1a over Canonical, the key a
// job with this spec is cached and fetched under. The key indexes;
// Canonical identifies (see cache.get).
func (s JobSpec) Key() uint64 { return identityKey(s.Canonical()) }
