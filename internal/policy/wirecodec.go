package policy

import (
	"prema/internal/mol"
	"prema/internal/wire"
)

// Wire codecs for the balancing policies' control traffic. Work stealing's
// nack/grant ride builtin kinds (nil / int), diffusion broadcasts a builtin
// float64, and multi-list's fetch is nil — only the structured payloads
// need codecs here.
func init() {
	wire.Register(wire.KindPolicySteal, stealRequest{},
		func(w *wire.Writer, v any) { w.F64(v.(stealRequest).Load) },
		func(r *wire.Reader) any { return stealRequest{Load: r.F64()} })

	wire.Register(wire.KindPolicyAd, ad{},
		func(w *wire.Writer, v any) {
			a := v.(ad)
			w.Int(a.mp.Home)
			w.Int(a.mp.Index)
			w.Int(a.host)
			w.F64(a.weight)
		},
		func(r *wire.Reader) any {
			return ad{mp: mol.MobilePtr{Home: r.Int(), Index: r.Int()}, host: r.Int(), weight: r.F64()}
		})

	wire.Register(wire.KindPolicyClaim, claimMsg{},
		func(w *wire.Writer, v any) {
			c := v.(claimMsg)
			w.Int(c.mp.Home)
			w.Int(c.mp.Index)
			w.Int(c.claimer)
		},
		func(r *wire.Reader) any {
			return claimMsg{mp: mol.MobilePtr{Home: r.Int(), Index: r.Int()}, claimer: r.Int()}
		})
}
