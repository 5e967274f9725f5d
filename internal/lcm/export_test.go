package lcm

// DisableNSFaultPatch removes the §6.3 patch from a layer a nucleus has
// already built, so the external tests can reproduce the pathology
// through the full stack. Call it before the layer carries any traffic.
func (l *Layer) DisableNSFaultPatch() { l.noNSFaultPatch = true }
