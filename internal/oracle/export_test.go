package oracle

// ShadowSizes reports how many entries each per-run shadow set holds, for
// the plateau test in the external test package.
func (c *Checker) ShadowSizes() (units, discarded, snoop int) {
	return len(c.units), len(c.discarded), len(c.snoopCache)
}
