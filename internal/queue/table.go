package queue

// Table is a small table kept in ascending key order: the working sets a
// packet touches on its way across the wireless hop (ARQ window, held
// packets, snoop cache, open reassembly groups, reorder and sink buffers)
// hold a handful to a few dozen entries under keys that are issued in
// increasing order, so a sorted slice answers every question a map did —
// and "what is the lowest key" without a scan — with no hashing, and its
// iteration order is the key order by construction.
//
// It is a plain slice: len(t), t[i].Key, t[i].Val and range all work, and
// t[0] is the minimum. A new key is almost always above every key held
// (one compare to place it); a looked-up key is almost always the newest
// or among the oldest, which is where Find looks first. The zero value is
// an empty table.
type Table[K interface{ ~int | ~int64 | ~uint64 }, V any] []struct {
	Key K
	Val V
}

// Find returns the index of key k, or -1 when it is not held.
func (t Table[K, V]) Find(k K) int {
	n := len(t)
	if n == 0 || k > t[n-1].Key {
		return -1
	}
	if k == t[n-1].Key {
		return n - 1
	}
	for i := range t {
		if t[i].Key >= k {
			if t[i].Key == k {
				return i
			}
			break
		}
	}
	return -1
}

// Insert places v under k and returns its index. When k is already held
// nothing changes: the index is the existing entry's and fresh is false,
// so the caller decides whether the newcomer replaces it.
func (t *Table[K, V]) Insert(k K, v V) (i int, fresh bool) {
	s := *t
	i = len(s)
	for i > 0 && s[i-1].Key >= k {
		if s[i-1].Key == k {
			return i - 1, false
		}
		i--
	}
	s = append(s, struct {
		Key K
		Val V
	}{k, v})
	if i < len(s)-1 {
		copy(s[i+1:], s[i:])
		s[i].Key, s[i].Val = k, v
	}
	*t = s
	return i, true
}

// Put places v under k, replacing the value of an entry already there.
func (t *Table[K, V]) Put(k K, v V) {
	if i, fresh := t.Insert(k, v); !fresh {
		(*t)[i].Val = v
	}
}

// Delete removes the entry at index i, keeping the rest in order.
func (t *Table[K, V]) Delete(i int) {
	s := *t
	n := copy(s[i:], s[i+1:]) + i
	clear(s[n:])
	*t = s[:n]
}

// PopBelow removes every entry whose key is below k — they are the front
// of the table — and reports how many there were.
func (t *Table[K, V]) PopBelow(k K) int {
	s := *t
	below := 0
	for below < len(s) && s[below].Key < k {
		below++
	}
	if below > 0 {
		n := copy(s, s[below:])
		clear(s[n:])
		*t = s[:n]
	}
	return below
}

// DeleteFunc removes every entry for which del reports true, in one
// compacting pass that keeps the rest in order (a Delete per entry inside
// a loop would move the tail once per removal).
func (t *Table[K, V]) DeleteFunc(del func(K, V) bool) {
	s := *t
	n := 0
	for i := range s {
		if !del(s[i].Key, s[i].Val) {
			s[n] = s[i]
			n++
		}
	}
	clear(s[n:])
	*t = s[:n]
}

// Reset empties the table, keeping its storage.
func (t *Table[K, V]) Reset() {
	clear(*t)
	*t = (*t)[:0]
}
