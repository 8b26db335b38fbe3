package status

// Verify view: when the process runs a verifying recovery client (a
// kondo-load soak with a Merkle-rooted manifest, or any runtime that
// armed CachedFetcher.SetVerify), /statusz embeds the live
// verification state so an operator — or the verify-demo gate — can
// see tamper rejections without scraping Prometheus text. The status
// layer stays generic: the state is an opaque JSON-marshalable value
// supplied by the host, and processes
// without a verifying client pay nothing (the key is omitted).

// SetVerifySource installs the /statusz verify-state provider. Until
// one is set the snapshot omits the "verify" key. Safe to call
// concurrently with requests.
func (s *Server) SetVerifySource(fn func() any) {
	s.mu.Lock()
	s.verifySource = fn
	s.mu.Unlock()
}
