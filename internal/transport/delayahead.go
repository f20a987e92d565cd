package transport

import (
	"time"

	"fabricgossip/internal/netmodel"
	"fabricgossip/internal/sim"
)

// delayAheadLen is the length of each of a lookahead's two buffers, 64 KB
// apiece, allocated once per shard. A fill starts on the processor of the
// engine goroutine that starts it, so an idle core has to steal it first;
// 1 024 draws left too little slack for that and lost the gain.
const delayAheadLen = 8192

// delayAhead draws one shard's netmodel.Model.Base values ahead of the sends
// that use them, on another goroutine, into two reused buffers: sends read
// one while the other fills. The values come from the shard's stream in the
// order inline draws would take them, so every delay is unchanged. Each fill
// is one goroutine that ends with it, so nothing outlives a fill and the
// network needs no Close.
type delayAhead struct {
	model netmodel.Model
	// rng and back belong to the fill in flight; the send that takes done
	// gets them back.
	rng  *sim.Rand
	buf  []time.Duration // the buffer sends read
	back []time.Duration // the buffer the fill draws into
	pos  int             // next unread value of buf
	read int             // values sends read from the buffers before buf
	done chan struct{}
	// fillFn is fill, bound once so that starting a fill allocates nothing.
	fillFn func()
}

// newDelayAhead starts the first fill; the first next, finding buf empty,
// waits for it.
func newDelayAhead(model netmodel.Model, rng *sim.Rand, n int) *delayAhead {
	a := &delayAhead{model: model, rng: rng, buf: make([]time.Duration, 0, n), back: make([]time.Duration, n),
		done: make(chan struct{}, 1)}
	a.fillFn = a.fill
	go a.fillFn()
	return a
}

// fill draws back full and hands it over on done.
func (a *delayAhead) fill() {
	for i := range a.back {
		a.back[i] = a.model.Base(a.rng)
	}
	a.done <- struct{}{}
}

// next returns the next Base value.
func (a *delayAhead) next() time.Duration {
	if a.pos == len(a.buf) {
		a.swap()
	}
	a.pos++
	return a.buf[a.pos-1]
}

// swap waits for the fill in flight, reads its buffer from now on and
// refills the one just read.
func (a *delayAhead) swap() {
	<-a.done
	a.read += len(a.buf)
	a.buf, a.back = a.back, a.buf[:cap(a.buf)]
	a.pos = 0
	go a.fillFn()
}

// stop waits for the fill in flight and brings fresh, a new copy of the
// stream, to where inline draws would have left it: the values sends have
// read, drawn again.
func (a *delayAhead) stop(fresh *sim.Rand) *sim.Rand {
	<-a.done
	for range a.read + a.pos {
		a.model.Base(fresh)
	}
	return fresh
}
