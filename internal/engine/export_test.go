package engine

// ArenaFloats reports the floats the flooding kernel's two set arenas
// hold (their capacities) and the floats of the sets they store.
func (f *Flood) ArenaFloats() (held, stored int) {
	return cap(f.sets) + cap(f.spare), len(f.sets)
}
