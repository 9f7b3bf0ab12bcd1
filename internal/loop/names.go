package loop

import "hash/maphash"

// nameSeed keys the name tables' hash. It is random per process, so no
// text can be crafted to make the names of its ops collide.
var nameSeed = maphash.MakeSeed()

// nameTable indexes a loop's ops by name in one flat slice: an
// open-addressing hash table with linear probing, at most half full,
// whose slots hold an op's ID plus one, or zero when empty. The ops
// themselves hold the names, so every method takes them.
type nameTable []int32

// nameTableSize returns the slot count of a table for n ops: the
// least power of two that is at least 2n, and at least 1.
func nameTableSize(n int) int {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	return size
}

// newNameTable returns an empty table for n ops.
func newNameTable(n int) nameTable { return make(nameTable, nameTableSize(n)) }

// slot returns the index of name's slot in t: the one holding the op
// named name, or the empty slot where it would go.
func (t nameTable) slot(ops []Op, name string) int {
	mask := uint64(len(t) - 1)
	for i := maphash.String(nameSeed, name) & mask; ; i = (i + 1) & mask {
		if v := t[i]; v == 0 || ops[v-1].Name == name {
			return int(i)
		}
	}
}

// insert adds ops[id] to t under its name, unless an op of that name
// is already there; it reports whether it added it.
func (t nameTable) insert(ops []Op, id ID) bool {
	i := t.slot(ops, ops[id].Name)
	if t[i] != 0 {
		return false
	}
	t[i] = int32(id) + 1
	return true
}

// find returns the ID of the op named name.
func (t nameTable) find(ops []Op, name string) (ID, bool) {
	v := t[t.slot(ops, name)]
	return ID(v) - 1, v != 0
}
