package traffic

// MeanLoad returns the analytic mean offered load (flits/cycle) of a
// burst configuration, the reference the burst model's measured load is
// held to: the chain is ON for meanLen/pOnOff cycles per burst and OFF
// for 1/pOffOn cycles between bursts.
func (cfg BurstConfig) MeanLoad() float64 {
	pOn := float64(cfg.POffOn) / 65536
	pOff := float64(cfg.POnOff) / 65536
	meanLen := float64(cfg.LenMin+cfg.LenMax) / 2
	onCycles := meanLen / pOff
	offCycles := 1 / pOn
	return onCycles / (onCycles + offCycles)
}
