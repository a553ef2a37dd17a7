package mem

// RowsPerBank reports the number of rows each bank stores.
func (g Geometry) RowsPerBank() uint64 {
	return g.Total / (uint64(g.Vaults) * uint64(g.Banks) * uint64(g.RowBytes))
}
