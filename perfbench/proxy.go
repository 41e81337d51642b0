package main

import (
	"io"
	"net"
	"net/url"
	"sync"
	"time"
)

// delayProxy is a TCP proxy that holds every client→server write for a
// fixed delay before forwarding it. With one request per write, each
// request reaches the server delay later: an injected slowdown the
// benchmark's own tests check it can see.
type delayProxy struct {
	ln    net.Listener
	url   string
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]bool
}

func startDelayProxy(upstream string, delay time.Duration) (*delayProxy, error) {
	u, err := url.Parse(upstream)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &delayProxy{ln: ln, url: "http://" + ln.Addr().String(), conns: map[net.Conn]bool{}}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", u.Host)
			if err != nil {
				c.Close()
				continue
			}
			p.track(c, s)
			p.wg.Add(2)
			go func() {
				defer p.wg.Done()
				buf := make([]byte, 32<<10)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						time.Sleep(delay)
						if _, werr := s.Write(buf[:n]); werr != nil {
							break
						}
					}
					if err != nil {
						break
					}
				}
				s.Close()
			}()
			go func() {
				defer p.wg.Done()
				_, _ = io.Copy(c, s)
				c.Close()
			}()
		}
	}()
	return p, nil
}

func (p *delayProxy) track(cs ...net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range cs {
		p.conns[c] = true
	}
}

// close stops accepting, closes every proxied connection and waits for the
// copy goroutines to exit.
func (p *delayProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
