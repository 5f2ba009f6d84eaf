package main

import (
	"sync"
	"testing"

	"tolerance/internal/fleet/proto"
	"tolerance/internal/transport"
)

func frame(t *testing.T, kind proto.Kind, payload any) []byte {
	t.Helper()
	data, err := proto.Encode(kind, payload)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A worker-side endpoint pairs each lease request and records batch with
// its reply while other goroutines send on it concurrently.
func TestTracedEndpointTimesRoundTrips(t *testing.T) {
	net, err := transport.NewSimNetwork(transport.Conditions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	coordInner, _ := net.Endpoint("coord")
	workerInner, _ := net.Endpoint("worker")
	coord := newTracedEndpoint(coordInner, false)
	worker := newTracedEndpoint(workerInner, true)

	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the coordinator answers every request
		defer wg.Done()
		for i := 0; i < 2*rounds; {
			msg := <-coord.Receive()
			kind, _, err := proto.Decode(msg.Payload)
			if err != nil {
				t.Error(err)
				return
			}
			if kind == proto.KindHeartbeat {
				continue
			}
			i++
			reply, err := proto.Encode(proto.KindLease, proto.Lease{ID: uint64(i)})
			if kind == proto.KindRecords {
				reply, err = proto.Encode(proto.KindRecordsAck, proto.RecordsAck{Seq: i})
			}
			if err != nil {
				t.Error(err)
				return
			}
			if err := coord.Send(msg.From, reply); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	heartbeat := frame(t, proto.KindHeartbeat, proto.Heartbeat{})
	for i := 0; i < rounds; i++ {
		for _, req := range [][]byte{
			frame(t, proto.KindLeaseRequest, proto.LeaseRequest{}),
			frame(t, proto.KindRecords, proto.Records{Seq: i}),
		} {
			var beats sync.WaitGroup // heartbeats race the request
			beats.Add(2)
			for b := 0; b < 2; b++ {
				go func() {
					defer beats.Done()
					if err := worker.Send("coord", heartbeat); err != nil {
						t.Error(err)
					}
				}()
			}
			if err := worker.Send("coord", req); err != nil {
				t.Fatal(err)
			}
			<-worker.Receive()
			beats.Wait()
		}
	}
	wg.Wait()
	if err := worker.Close(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	ws, cs := worker.stats(), coord.stats()
	if len(ws.leaseRTTUS) != rounds || len(ws.ackRTTUS) != rounds {
		t.Fatalf("round trips: %d lease, %d ack; want %d each", len(ws.leaseRTTUS), len(ws.ackRTTUS), rounds)
	}
	if ws.frames != 6*rounds || cs.frames != 2*rounds {
		t.Fatalf("frames: worker %d, coordinator %d", ws.frames, cs.frames)
	}
	if len(cs.leaseRTTUS)+len(cs.ackRTTUS) != 0 {
		t.Fatal("the coordinator side must not time round trips")
	}
}
