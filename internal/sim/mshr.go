package sim

// mshrTable maps line addresses to their in-flight MSHR entries: an
// open-addressing hash table with linear probing, kept at most half
// full, whose deletions shift the rest of a probe run back instead of
// leaving tombstones. Every miss, merge, prefetch candidate, and
// completion looks a line up here, which is why it is not a Go map.
// Nothing observable depends on its layout: the only ordered walk
// (SaveState) sorts the lines.
type mshrTable struct {
	slots []mshrSlot
	n     int
	shift uint // 64 - log2(len(slots))
}

// mshrSlot is one table slot; a nil e marks it empty.
type mshrSlot struct {
	line uint64
	e    *mshrEntry
}

// home is a line's preferred slot (Fibonacci hashing).
func (t *mshrTable) home(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> t.shift)
}

func (t *mshrTable) len() int { return t.n }

// get returns the line's entry, or nil.
func (t *mshrTable) get(line uint64) *mshrEntry {
	if t.n == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(line); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.e == nil || s.line == line {
			return s.e
		}
	}
}

// put adds an entry for a line the table does not hold.
func (t *mshrTable) put(line uint64, e *mshrEntry) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(line)
	for t.slots[i].e != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = mshrSlot{line: line, e: e}
	t.n++
}

// grow doubles the table (first allocation: 256 slots) and rehashes.
func (t *mshrTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = 256
	}
	t.slots = make([]mshrSlot, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.n = 0
	for _, s := range old {
		if s.e != nil {
			t.put(s.line, s.e)
		}
	}
}

// del removes a line the table holds, then walks the probe run after
// the hole, moving back every entry whose home does not lie cyclically
// within (hole, its slot] so lookups never meet a gap before it.
func (t *mshrTable) del(line uint64) {
	mask := len(t.slots) - 1
	i := t.home(line)
	for t.slots[i].line != line || t.slots[i].e == nil {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].e != nil; j = (j + 1) & mask {
		if h := t.home(t.slots[j].line); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = mshrSlot{}
	t.n--
}

// lines appends every held line to dst, in table order.
func (t *mshrTable) lines(dst []uint64) []uint64 {
	for _, s := range t.slots {
		if s.e != nil {
			dst = append(dst, s.line)
		}
	}
	return dst
}
