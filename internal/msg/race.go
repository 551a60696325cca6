//go:build race

package msg

// Under the race detector every recycled byte slice is overwritten, so
// a result read after the master returned it renders wrong pixels.
func init() { scribble = true }
