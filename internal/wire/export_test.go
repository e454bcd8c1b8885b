package wire

import "testing"

// RegisterForTest is Register for a codec that lives only as long as t: a
// test can send a kind no layer registers without changing the registry the
// other tests see. Tests that use it must not run in parallel.
func RegisterForTest(t testing.TB, k Kind, sample any, enc EncodeFunc, dec DecodeFunc) {
	n := len(byType)
	Register(k, sample, enc, dec)
	t.Cleanup(func() {
		if k < KindUser {
			byKind[k] = nil
		} else {
			delete(userKinds, k)
		}
		clear(byType[n:])
		byType = byType[:n]
	})
}
