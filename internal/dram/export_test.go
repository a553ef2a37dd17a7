package dram

import "github.com/hipe-sim/hipe/internal/stats"

// NumVaults reports the vault count.
func (h *HMC) NumVaults() uint32 { return uint32(len(h.vaults)) }

// LatencyStats exposes the vault's observed request latency histogram.
func (v *Vault) LatencyStats() *stats.Histogram { return &v.latency }
