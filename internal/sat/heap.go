package sat

import "repro/internal/cnf"

// varHeap is a binary max-heap of variables ordered by VSIDS activity.
// It keeps an index from variable to heap position so that activities can be
// updated in place (percolating the entry up as needed).
type varHeap struct {
	data []cnf.Var
	pos  []int // variable -> index in data, -1 if absent
}

func (h *varHeap) ensure(v cnf.Var) {
	for len(h.pos) <= int(v) {
		h.pos = append(h.pos, -1)
	}
}

func (h *varHeap) empty() bool { return len(h.data) == 0 }

func (h *varHeap) contains(v cnf.Var) bool {
	return int(v) < len(h.pos) && h.pos[v] >= 0
}

func (h *varHeap) insert(v cnf.Var, act []float64) {
	h.ensure(v)
	if h.pos[v] >= 0 {
		return
	}
	h.data = append(h.data, v)
	h.pos[v] = len(h.data) - 1
	h.up(len(h.data)-1, act)
}

// clear empties the heap.
func (h *varHeap) clear() {
	for _, v := range h.data {
		h.pos[v] = -1
	}
	h.data = h.data[:0]
}

// update restores the heap property after v's activity increased.
func (h *varHeap) update(v cnf.Var, act []float64) {
	if !h.contains(v) {
		return
	}
	h.up(h.pos[v], act)
}

func (h *varHeap) removeTop(act []float64) cnf.Var {
	top := h.data[0]
	last := len(h.data) - 1
	h.data[0] = h.data[last]
	h.pos[h.data[0]] = 0
	h.data = h.data[:last]
	h.pos[top] = -1
	if last > 0 {
		h.down(0, act)
	}
	return top
}

func (h *varHeap) up(i int, act []float64) {
	v := h.data[i]
	for i > 0 {
		p := (i - 1) / 2
		if act[h.data[p]] >= act[v] {
			break
		}
		h.data[i] = h.data[p]
		h.pos[h.data[i]] = i
		i = p
	}
	h.data[i] = v
	h.pos[v] = i
}

func (h *varHeap) down(i int, act []float64) {
	v := h.data[i]
	n := len(h.data)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && act[h.data[c+1]] > act[h.data[c]] {
			c++
		}
		if act[h.data[c]] <= act[v] {
			break
		}
		h.data[i] = h.data[c]
		h.pos[h.data[i]] = i
		i = c
	}
	h.data[i] = v
	h.pos[v] = i
}
