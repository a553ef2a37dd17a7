package dram

// NumVaults reports the vault count.
func (h *HMC) NumVaults() uint32 { return uint32(len(h.vaults)) }
