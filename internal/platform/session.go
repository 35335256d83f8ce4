// Session handles: the platform surface a co-simulation session
// (internal/serve) drives between kernel runs. Scripted injection
// reaches the TG's ScriptGen; answers are read back over the register
// buses, for which TRDev maps a sink endpoint to its TR device (attach
// order is deterministic: spec order per bus).
//
// All of these are between-run operations: the engine re-evaluates
// every parked component at each kernel entry, so a demand scripted
// while the platform is stopped needs no arm hook to wake its TG on
// the next run.
package platform

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/traffic"
)

// InjectScript schedules one scripted packet on the TG at src, due at
// cycle at (clamped up to the current kernel cycle at emission time).
// The TG must have been built from a nil TGSpec.Gen or with
// TGSpec.Scripted.
func (p *Platform) InjectScript(src flit.EndpointID, rec traffic.ScriptRec) error {
	sg, err := p.scriptGen(src)
	if err != nil {
		return err
	}
	return sg.Append(rec)
}

func (p *Platform) scriptGen(src flit.EndpointID) (*traffic.ScriptGen, error) {
	tg, ok := p.tgByEndpoint[src]
	if !ok {
		return nil, fmt.Errorf("platform %s: no TG at endpoint %d", p.cfg.Name, src)
	}
	sg, ok := tg.Generator().(*traffic.ScriptGen)
	if !ok {
		return nil, fmt.Errorf("platform %s: TG at endpoint %d is not scripted (model %s)",
			p.cfg.Name, src, tg.Generator().ModelName())
	}
	return sg, nil
}

// TRDev returns the bus-2 device number of the TR at the endpoint.
func (p *Platform) TRDev(ep flit.EndpointID) (uint32, bool) {
	for i, spec := range p.cfg.TRs {
		if spec.Endpoint == ep {
			return uint32(i), true
		}
	}
	return 0, false
}
