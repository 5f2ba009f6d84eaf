package main

import (
	"sync"
	"time"

	"tolerance/internal/fleet/proto"
	"tolerance/internal/transport"
)

// tracedEndpoint wraps a transport.Endpoint to count and time the frames
// the coordinator protocol sends. On the worker side it also times the
// two request/reply exchanges: lease-request → lease or wait, and
// records → records-ack.
type tracedEndpoint struct {
	inner  transport.Endpoint
	worker bool
	out    chan transport.Message
	stop   chan struct{}
	once   sync.Once
	fwd    sync.WaitGroup

	mu        sync.Mutex
	st        endpointStats
	leaseSent time.Time   // pending lease request, zero when none
	recsSent  []time.Time // pending records batches, oldest first
}

type endpointStats struct {
	frames, bytes int64
	sendUS        []float64
	leaseRTTUS    []float64
	ackRTTUS      []float64
}

func newTracedEndpoint(inner transport.Endpoint, worker bool) *tracedEndpoint {
	e := &tracedEndpoint{
		inner: inner, worker: worker,
		out:  make(chan transport.Message, 4096), // as deep as the TCP endpoint's inbound queue, so the relay adds no backpressure
		stop: make(chan struct{}),
	}
	e.fwd.Add(1)
	go e.forward()
	return e
}

func (e *tracedEndpoint) Addr() string { return e.inner.Addr() }

func (e *tracedEndpoint) Send(to string, payload []byte) error {
	var kind proto.Kind
	if e.worker {
		kind, _, _ = proto.Decode(payload) // an undecodable frame times nothing
	}
	// The request is pending before the bytes leave: the reply can arrive
	// before inner.Send returns.
	t0 := time.Now()
	e.mu.Lock()
	switch kind {
	case proto.KindLeaseRequest:
		e.leaseSent = t0
	case proto.KindRecords:
		e.recsSent = append(e.recsSent, t0)
	}
	e.mu.Unlock()

	err := e.inner.Send(to, payload)
	d := time.Since(t0)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.st.frames++
	e.st.bytes += int64(len(payload))
	e.st.sendUS = append(e.st.sendUS, float64(d.Nanoseconds())/1e3)
	if err != nil {
		switch kind {
		case proto.KindLeaseRequest:
			e.leaseSent = time.Time{}
		case proto.KindRecords:
			if n := len(e.recsSent); n > 0 && e.recsSent[n-1].Equal(t0) {
				e.recsSent = e.recsSent[:n-1]
			}
		}
	}
	return err
}

func (e *tracedEndpoint) Receive() <-chan transport.Message { return e.out }

// forward relays inbound messages, timing replies on the worker side. It
// exits when the inner endpoint closes its channel or Close is called.
func (e *tracedEndpoint) forward() {
	defer e.fwd.Done()
	defer close(e.out)
	for msg := range e.inner.Receive() {
		if e.worker {
			e.observe(msg, time.Now())
		}
		select {
		case e.out <- msg:
		case <-e.stop:
			return
		}
	}
}

func (e *tracedEndpoint) observe(msg transport.Message, now time.Time) {
	kind, _, err := proto.Decode(msg.Payload)
	if err != nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch kind {
	case proto.KindLease, proto.KindWait:
		if !e.leaseSent.IsZero() {
			e.st.leaseRTTUS = append(e.st.leaseRTTUS, float64(now.Sub(e.leaseSent).Nanoseconds())/1e3)
			e.leaseSent = time.Time{}
		}
	case proto.KindRecordsAck:
		if len(e.recsSent) > 0 {
			e.st.ackRTTUS = append(e.st.ackRTTUS, float64(now.Sub(e.recsSent[0]).Nanoseconds())/1e3)
			e.recsSent = e.recsSent[1:]
		}
	}
}

func (e *tracedEndpoint) Close() error {
	var err error
	e.once.Do(func() {
		close(e.stop)
		err = e.inner.Close()
		e.fwd.Wait()
	})
	return err
}

func (e *tracedEndpoint) stats() endpointStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.st
}
