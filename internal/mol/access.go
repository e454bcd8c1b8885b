package mol

import (
	"prema/internal/dmcs"
	"prema/internal/substrate"
)

// Remote data access (the MOL paper's mol_get-style consistent access
// mechanism): a Get targets a mobile pointer, a read handler runs at the
// object's current host, and the extracted value returns to the requester's
// continuation. Like every mol message, Gets route through migration
// forwarding and respect per-origin ordering — so a Get issued after an
// update message from the same processor observes that update.

// Reader extracts the requested view from the object at its host. It must
// not retain obj.
type Reader func(obj *Object) (value any, size int)

// getRequest travels to the object; getReply returns to the requester.
type getRequest struct {
	ID     uint64
	Reader int // index into the registered readers
	Origin int
}

type getReply struct {
	ID    uint64
	Value any
}

// RegisterReader installs a read extractor and returns its ID; SPMD
// registration order applies.
func (l *Layer) RegisterReader(r Reader) int {
	l.ensureAccess()
	l.readers = append(l.readers, r)
	return len(l.readers) - 1
}

// Get requests a read of the object named by mp: reader (a RegisterReader
// ID) runs at the object's host, and done is invoked here with the value
// once the reply arrives (at a poll). Gets from this processor to mp are
// ordered with its other messages to mp.
func (l *Layer) Get(mp MobilePtr, reader int, done func(value any)) {
	l.ensureAccess()
	l.getSeq++
	id := l.getSeq
	l.getPending[id] = done
	l.MessageTagged(mp, l.hGetReq, getRequest{ID: id, Reader: reader, Origin: l.Proc().ID()}, 24, substrate.TagApp)
}

// ensureAccess lazily registers the access-layer handlers. The first use
// must happen at the same construction point on every processor (SPMD), as
// with all handler registration.
func (l *Layer) ensureAccess() {
	if l.accessReady {
		return
	}
	l.accessReady = true
	l.getPending = make(map[uint64]func(any))
	// The request is an ordinary object handler: it runs wherever the
	// object lives, extracts the value, and replies directly to the origin.
	l.hGetReq = l.RegisterHandler(func(ll *Layer, obj *Object, src int, data any, size int) {
		req := data.(getRequest)
		value, sz := ll.readers[req.Reader](obj)
		if req.Origin == ll.Proc().ID() {
			ll.completeGet(getReply{ID: req.ID, Value: value})
			return
		}
		ll.Comm().SendTagged(req.Origin, ll.hGetReply, getReply{ID: req.ID, Value: value}, sz+16, substrate.TagApp)
	})
	l.hGetReply = l.Comm().Register(func(c *dmcs.Comm, src int, data any, size int) {
		l.completeGet(data.(getReply))
	})
}

func (l *Layer) completeGet(r getReply) {
	done, ok := l.getPending[r.ID]
	if !ok {
		panic("mol: get reply without a pending request")
	}
	delete(l.getPending, r.ID)
	done(r.Value)
}
