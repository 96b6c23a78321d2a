package core

// SetBlockShift sets e's block size to 1<<shift nodes, for the layout
// tests; call it before the first Step.
func SetBlockShift(e *Engine, shift uint) { e.shift = shift }
