package sim

// Wakes returns how many times the kernel has switched into a process.
func (e *Env) Wakes() int64 { return e.wakes }
