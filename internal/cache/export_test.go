package cache

// PendingMisses reports the number of outstanding fills.
func (c *Cache) PendingMisses() int { return len(c.pending) }
