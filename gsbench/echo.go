package main

import (
	"bufio"
	"net"
	"sync"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/wire"
)

// echo is a loopback peer that reads wire frames and answers each with a
// reply of the size the server would send (an ack for an ingest frame, a
// results frame for a query batch) without doing any work. A round trip
// through it is the transport share of a request: syscalls, loopback
// copies and one wake-up on each side.
type echo struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func startEcho() (*echo, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echo{ln: ln}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.conns = append(e.conns, c)
			e.mu.Unlock()
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				e.serve(c)
			}()
		}
	}()
	return e, nil
}

func (e *echo) serve(c net.Conn) {
	defer c.Close()
	dec := wire.NewDecoder(bufio.NewReaderSize(c, 64<<10))
	bw := bufio.NewWriterSize(c, 64<<10)
	replies := map[int][]byte{}
	ack := wire.AppendAck(nil, 0, 0)
	for {
		f, err := dec.Next()
		if err != nil {
			return
		}
		out := ack
		if f.Type == wire.TypeQuery {
			n := len(f.Payload) / 16
			if replies[n] == nil {
				replies[n] = wire.AppendResults(nil, make([]gsketch.Result, n))
			}
			out = replies[n]
		}
		if _, err := bw.Write(out); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// close stops the listener and every connection and waits for them.
func (e *echo) close() {
	e.ln.Close()
	e.mu.Lock()
	for _, c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// echoClient sends encoded frames to an echo peer.
type echoClient struct {
	c   net.Conn
	bw  *bufio.Writer
	dec *wire.Decoder
}

func dialEcho(addr string) (*echoClient, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &echoClient{c: c, bw: bufio.NewWriterSize(c, 64<<10), dec: wire.NewDecoder(bufio.NewReaderSize(c, 64<<10))}, nil
}

// roundTrip writes one encoded frame and reads the reply frame.
func (ec *echoClient) roundTrip(frame []byte) error {
	if _, err := ec.bw.Write(frame); err != nil {
		return err
	}
	if err := ec.bw.Flush(); err != nil {
		return err
	}
	_, err := ec.dec.Next()
	return err
}
