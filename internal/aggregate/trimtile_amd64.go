package aggregate

//go:generate go test . -run ^TestTrimTileAsmIsGenerated$ -update

// trimTileAVX2 writes the trimmed means of lanes columns (a positive
// multiple of 4) into out: column j is rows[0][j], …, rows[n−1][j],
// 3 ≤ n ≤ tileVecMaxN, trimmed m per side (2m < n), and div is n−2m.
// It only reads the rows. The caller has bounds-checked every element
// it reaches.
//
//go:noescape
func trimTileAVX2(out *float64, rows *[tileVecMaxN]*float64, n, m, lanes int, div float64)

// trimTileWeightedAVX2 is trimTileAVX2 with weights[i] (n of them,
// positive and finite) weighing every value of row i: each column's
// kept ranks reduce to Σw·v / Σw.
//
//go:noescape
func trimTileWeightedAVX2(out *float64, rows *[tileVecMaxN]*float64, weights *float64, n, m, lanes int)
