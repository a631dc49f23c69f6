package reliable

// RowGranular reports whether Conv2D on e takes the row path.
func (e *Engine) RowGranular() bool { return e.rows }
