package kernels

// treeUpdateAVX applies TreeUpdate to columns [0, 8·strips) of the
// nrows rows listed at rows, in c with row stride n; diag is nil for A
// and AD matrices. Implemented in update_amd64.s.
//
//go:noescape
func treeUpdateAVX(c *float32, rows, parent *int32, diag *float32, nrows, n, strips int)
