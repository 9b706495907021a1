package diagnosis

// History is the distributed state the diagnostic DAS operates on: the
// recent symptom stream, ordered by action-lattice granule, indexed by
// subject FRU. ONAs are predicates over this store (paper Section V-A).
type History struct {
	// RetainGranules bounds how far back symptoms are kept.
	RetainGranules int64

	bySubject map[FRUIndex][]Symptom
	latest    int64
	total     uint64
}

// NewHistory returns a store retaining the given number of granules.
func NewHistory(retain int64) *History {
	if retain <= 0 {
		panic("diagnosis: history retention must be positive")
	}
	return &History{RetainGranules: retain, bySubject: make(map[FRUIndex][]Symptom)}
}

// Add inserts a symptom and prunes expired entries for its subject.
// Symptoms may arrive out of granule order (the diagnostic network queues
// under load), so insertion keeps each subject's list granule-sorted —
// front-pruning stays exact.
func (h *History) Add(s Symptom) {
	if s.Granule > h.latest {
		h.latest = s.Granule
	}
	h.total++
	list := h.bySubject[s.Subject]
	i := len(list)
	for i > 0 && list[i-1].Granule > s.Granule {
		i--
	}
	list = append(list, Symptom{})
	copy(list[i+1:], list[i:])
	list[i] = s
	cut := h.latest - h.RetainGranules
	start := 0
	for start < len(list) && list[start].Granule < cut {
		start++
	}
	h.bySubject[s.Subject] = list[start:]
}

// Latest returns the newest granule seen.
func (h *History) Latest() int64 { return h.latest }

// Total returns the number of symptoms ever added.
func (h *History) Total() uint64 { return h.total }

// Subjects returns all FRUs with retained symptoms, in index order.
func (h *History) Subjects() []FRUIndex {
	var out []FRUIndex
	for f := range h.bySubject {
		out = append(out, f)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Filter is a symptom predicate used in window queries; nil matches all.
type Filter func(Symptom) bool

// KindIn returns a Filter matching any of the given kinds.
func KindIn(kinds ...Kind) Filter {
	return func(s Symptom) bool {
		for _, k := range kinds {
			if s.Kind == k {
				return true
			}
		}
		return false
	}
}

// list returns the subject's retained symptoms, granule-sorted. Shared
// internal state: same-package query helpers iterate it without copying.
func (h *History) list(subject FRUIndex) []Symptom { return h.bySubject[subject] }

// The window queries below scan the subject's granule-sorted list, stop at
// the window's end and allocate nothing beyond what dst needs: ONAs and the
// Bayesian stage call them many times per epoch.

// Count sums the Count fields of matching symptoms in the window
// [from, to] (inclusive).
func (h *History) Count(subject FRUIndex, from, to int64, f Filter) int {
	n := 0
	for _, s := range h.bySubject[subject] {
		if s.Granule > to {
			break
		}
		if s.Granule >= from && (f == nil || f(s)) {
			n += int(s.Count)
		}
	}
	return n
}

// ActiveGranuleCount returns the number of distinct granules with matching
// symptoms for the subject in the window.
func (h *History) ActiveGranuleCount(subject FRUIndex, from, to int64, f Filter) int {
	n, last := 0, int64(-1)
	for _, s := range h.bySubject[subject] {
		if s.Granule > to {
			break
		}
		if s.Granule < from || (f != nil && !f(s)) {
			continue
		}
		if n == 0 || s.Granule != last {
			n++
			last = s.Granule
		}
	}
	return n
}

// AppendActiveGranules appends the distinct granules with matching
// symptoms for the subject in the window to dst, ascending, and returns the
// extended slice.
func (h *History) AppendActiveGranules(dst []int64, subject FRUIndex, from, to int64, f Filter) []int64 {
	start := len(dst)
	for _, s := range h.bySubject[subject] {
		if s.Granule > to {
			break
		}
		if s.Granule < from || (f != nil && !f(s)) {
			continue
		}
		if len(dst) == start || dst[len(dst)-1] != s.Granule {
			dst = append(dst, s.Granule)
		}
	}
	return dst
}

// AppendObservers appends the distinct observers reporting matching
// symptoms for the subject in the window to dst, in first-report order, and
// returns the extended slice.
func (h *History) AppendObservers(dst []FRUIndex, subject FRUIndex, from, to int64, f Filter) []FRUIndex {
	start := len(dst)
	for _, s := range h.bySubject[subject] {
		if s.Granule > to {
			break
		}
		if s.Granule < from || (f != nil && !f(s)) {
			continue
		}
		dup := false
		for _, o := range dst[start:] {
			if o == s.Observer {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, s.Observer)
		}
	}
	return dst
}

// MaxDeviation returns the maximum Deviation of matching symptoms in the
// window.
func (h *History) MaxDeviation(subject FRUIndex, from, to int64, f Filter) float64 {
	max := 0.0
	for _, s := range h.bySubject[subject] {
		if s.Granule > to {
			break
		}
		if s.Granule >= from && (f == nil || f(s)) {
			if d := float64(s.Deviation); d > max {
				max = d
			}
		}
	}
	return max
}
