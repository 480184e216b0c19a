package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/transport"
	"tmesh/internal/wire"
)

// probes measures the layers no interval span can isolate from the
// outside: keycrypt (called inside Regenerate and Keyring.Apply), wire
// (called inside the daemon's nodes) and the bare transports. They are
// the same on every workload and run once per traced run.
func probes(c config, m metricSet) error {
	encs, ack, err := probeKeycrypt(c, m)
	if err != nil {
		return err
	}
	if err := probeWire(encs, m); err != nil {
		return err
	}
	return probeTransports(ack, m)
}

// timeLoop runs f n times and returns ns and heap objects per call.
func timeLoop(n int, f func(i int)) (ns, allocs float64) {
	a0, t0 := mallocs(), time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	d := time.Since(t0)
	return float64(d.Nanoseconds()) / float64(n), float64(mallocs()-a0) / float64(n)
}

const probeWraps = 4096

// probeKeycrypt wraps and unwraps keys at the daemon's tree depth and
// returns the encryptions for the wire probe and an ack frame for the
// transport probes.
func probeKeycrypt(c config, m metricSet) ([]keycrypt.Encryption, []byte, error) {
	params := ident.Params{Digits: 4, Base: 16}
	seed := []byte(fmt.Sprintf("bench-probe-%d", c.seed))
	kek, newKey := keycrypt.DeriveKey(seed, "kek"), keycrypt.DeriveKey(seed, "new")
	encs := make([]keycrypt.Encryption, probeWraps)
	ids := make([]ident.ID, probeWraps)
	for i := range ids {
		var err error
		if ids[i], err = ident.FromInt(params, i); err != nil {
			return nil, nil, err
		}
	}
	wr := keycrypt.NewWrapper(seed)
	var err error
	ns, allocs := timeLoop(probeWraps, func(i int) {
		var e error
		if encs[i], e = wr.WrapSeeded(kek, ids[i].Prefix(params.Digits-1), newKey, ids[i].Prefix(params.Digits-2), 1, uint64(i)); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, nil, err
	}
	m.put("keycrypt.wrap_ns", "ns", ns, probeWraps)
	m.put("keycrypt.wrap_allocs", "count", allocs, probeWraps)
	ns, _ = timeLoop(probeWraps, func(i int) {
		if got, e := keycrypt.Unwrap(kek, encs[i]); e != nil {
			err = e
		} else if got != newKey {
			err = fmt.Errorf("keycrypt probe: unwrap returned a different key")
		}
	})
	m.put("keycrypt.unwrap_ns", "ns", ns, probeWraps)
	return encs, wire.MarshalAck(7, ids[0]), err
}

const (
	probeFrameEncs = 48 // encryptions in the probe's rekey frame
	probeFrames    = 2000
)

func probeWire(encs []keycrypt.Encryption, m metricSet) error {
	msg := &keytree.Message{Interval: 7, Encryptions: encs[:probeFrameEncs]}
	var buf []byte
	var err error
	ns, allocs := timeLoop(probeFrames, func(int) {
		var e error
		if buf, e = wire.MarshalRekey(msg, 1); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	m.put("wire.marshal_ns_per_enc", "ns", ns/probeFrameEncs, probeFrames)
	m.put("wire.marshal_allocs", "count", allocs, probeFrames)
	m.put("wire.bytes_per_enc", "B", float64(len(buf))/probeFrameEncs, 1)
	ns, _ = timeLoop(probeFrames, func(int) {
		if got, _, e := wire.UnmarshalRekey(buf); e != nil {
			err = e
		} else if got.Cost() != probeFrameEncs {
			err = fmt.Errorf("wire probe: decoded %d encryptions, want %d", got.Cost(), probeFrameEncs)
		}
	})
	m.put("wire.unmarshal_ns_per_enc", "ns", ns/probeFrameEncs, probeFrames)
	return err
}

// probeRekeyBytes is the transport probes' large frame, about a level-1
// rekey frame of probeFrameEncs encryptions; the small one is an ack.
const probeRekeyBytes = 4096

func probeTransports(ack []byte, m metricSet) error {
	sw := transport.NewSwitch()
	kinds := []struct {
		name string
		open func(id transport.PeerID) (transport.Transport, error)
	}{
		{"loopback", func(id transport.PeerID) (transport.Transport, error) {
			return transport.NewLoopback(sw, transport.Config{ID: id, Queue: 4096})
		}},
		{"udp", func(id transport.PeerID) (transport.Transport, error) {
			return transport.NewUDP("127.0.0.1:0", transport.Config{ID: id, Queue: 4096})
		}},
		{"tcp", func(id transport.PeerID) (transport.Transport, error) {
			return transport.NewTCP("127.0.0.1:0", transport.Config{ID: id, Queue: 4096})
		}},
	}
	for _, k := range kinds {
		for _, size := range []struct {
			name  string
			frame []byte
		}{{"ack", ack}, {"rekey", make([]byte, probeRekeyBytes)}} {
			rtt, rate, err := probePair(k.open, size.frame)
			if err != nil {
				return fmt.Errorf("%s transport probe: %w", k.name, err)
			}
			m.put("transport."+k.name+".pingpong_us."+size.name, "us", rtt, probePings)
			m.put("transport."+k.name+".fanout_frames_per_s."+size.name, "1/s", rate, probeBurst)
		}
	}
	return nil
}

const (
	probePings = 300
	probeBurst = 2000
)

// probePair opens two endpoints of one kind and measures the median
// round trip of a frame echoed by the far side, then the rate at which
// a burst sent as fast as Send accepts it arrives.
func probePair(open func(transport.PeerID) (transport.Transport, error), frame []byte) (rttUS, framesPerS float64, err error) {
	a, err := open("probe-a")
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b, err := open("probe-b")
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	if err := a.AddPeer(b.ID(), b.Addr()); err != nil {
		return 0, 0, err
	}
	if err := b.AddPeer(a.ID(), a.Addr()); err != nil {
		return 0, 0, err
	}
	var echo atomic.Bool
	var arrived, lastArrival atomic.Int64 // frames at b, and when the last one came (UnixNano)
	pong := make(chan struct{}, 1)
	b.SetHandler(func(from transport.PeerID, f []byte) {
		lastArrival.Store(time.Now().UnixNano())
		arrived.Add(1)
		if echo.Load() {
			b.Send(from, f)
		}
	})
	a.SetHandler(func(transport.PeerID, []byte) {
		select {
		case pong <- struct{}{}:
		default:
		}
	})

	echo.Store(true)
	var rtts []float64
	for i := 0; i < probePings+20; i++ {
		t0 := time.Now()
		if err := a.Send(b.ID(), frame); err != nil {
			return 0, 0, err
		}
		select {
		case <-pong:
		case <-time.After(2 * time.Second):
			return 0, 0, fmt.Errorf("no echo of a %d-byte frame within 2s", len(frame))
		}
		if i >= 20 { // the first round trips pay dial and warm-up
			rtts = append(rtts, us(time.Since(t0)))
		}
	}

	echo.Store(false)
	arrived.Store(0)
	t0 := time.Now()
	for sent := 0; sent < probeBurst; {
		switch err := a.Send(b.ID(), frame); err {
		case nil:
			sent++
		case transport.ErrQueueFull:
			time.Sleep(50 * time.Microsecond)
		default:
			return 0, 0, err
		}
	}
	// A datagram transport may drop part of a burst; the rate counts
	// what arrived by the time arrivals stop.
	for arrived.Load() < probeBurst && time.Now().UnixNano()-lastArrival.Load() < int64(50*time.Millisecond) {
		time.Sleep(200 * time.Microsecond)
	}
	n := arrived.Load()
	elapsed := time.Duration(lastArrival.Load() - t0.UnixNano())
	return median(rtts), ratio(float64(n), elapsed.Seconds()), nil
}
