package sim

// msgRing is a growable FIFO ring buffer of queued messages. It replaces the
// append-and-reslice inbox: popping the front is O(1) with no slice churn,
// and the backing array is reused across the simulation instead of being
// reallocated every time the inbox drains. Capacity is always a power of
// two so index wrapping is a mask.
type msgRing struct {
	buf  []*Msg
	head int // index of the oldest queued message
	n    int // number of queued messages
}

const ringMinCap = 16

// Len returns the number of queued messages.
func (r *msgRing) Len() int { return r.n }

// at returns the i-th queued message (0 = oldest) without removing it.
func (r *msgRing) at(i int) *Msg { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// push appends m behind the newest queued message.
func (r *msgRing) push(m *Msg) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = m
	r.n++
}

// removeAt removes and returns the i-th queued message, preserving the
// relative order of the rest. It shifts whichever side of the ring is
// shorter, so popping the front (i = 0) is O(1).
func (r *msgRing) removeAt(i int) *Msg {
	m := r.at(i)
	mask := len(r.buf) - 1
	if i <= r.n-1-i {
		for j := i; j > 0; j-- {
			r.buf[(r.head+j)&mask] = r.buf[(r.head+j-1)&mask]
		}
		r.buf[r.head] = nil
		r.head = (r.head + 1) & mask
	} else {
		for j := i; j < r.n-1; j++ {
			r.buf[(r.head+j)&mask] = r.buf[(r.head+j+1)&mask]
		}
		r.buf[(r.head+r.n-1)&mask] = nil
	}
	r.n--
	return m
}

func (r *msgRing) grow() {
	newCap := 2 * len(r.buf)
	if newCap < ringMinCap {
		newCap = ringMinCap
	}
	nb := make([]*Msg, newCap)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}
