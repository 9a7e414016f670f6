package api

import (
	"context"
	"net"
	"net/http"
	"time"

	"cloudmcp/internal/core"
	"cloudmcp/internal/sim"
)

// shutdownGrace bounds how long Stack.Stop waits for open HTTP
// requests to finish.
const shutdownGrace = 5 * time.Second

// Stack is one running serving stack: a cloud under a paced driver, the
// frontend over both, and the REST server on a TCP listener. mcpserve,
// E22 and the api tests all build it through StartStack and drain it
// through Stop.
type Stack struct {
	Cloud    *core.Cloud
	Driver   *sim.Paced
	Frontend *core.Frontend
	Server   *Server
	URL      string // http:// and the listener's address

	hs       *http.Server
	serveErr chan error // Serve's result, then closed
	runDone  chan struct{}
}

// StartStack builds cloud → paced driver → frontend → server, listens
// on addr (port 0 picks a free one), and starts the driver and the HTTP
// server. The cloud records no trace whatever cfg.Record says: a served
// run is open-ended, so its trace would grow without bound and nobody
// reads it.
func StartStack(cfg core.Config, pc sim.PacedConfig, fc core.FrontendConfig, addr string) (*Stack, error) {
	cfg.Record = false
	c, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		c.Close()
		return nil, err
	}
	drv := sim.NewPaced(c.Env(), pc)
	fe := core.NewFrontend(c, drv, fc)
	s := &Stack{
		Cloud: c, Driver: drv, Frontend: fe, Server: NewServer(fe),
		URL:      "http://" + ln.Addr().String(),
		serveErr: make(chan error, 1),
		runDone:  make(chan struct{}),
	}
	s.hs = &http.Server{Handler: s.Server}
	go func() {
		s.serveErr <- s.hs.Serve(ln)
		close(s.serveErr)
	}()
	go func() {
		drv.Run(sim.Forever)
		close(s.runDone)
	}()
	return s, nil
}

// ServeErr delivers the error that ends serving. Before Stop, a value
// means the listener failed.
func (s *Stack) ServeErr() <-chan error { return s.serveErr }

// Stop drains the stack in the serving boundary's one order: stop
// injecting (every pending submission is rejected, so a client polling
// a task sees it reach a terminal state), join the driver, then shut
// HTTP down, waiting up to shutdownGrace for open requests. It returns
// once both goroutines have exited. Stop leaves the cloud open for the
// caller's last reads (the driver's MaxLag, the metrics); a caller that
// drops the stack calls Cloud.Close after them.
func (s *Stack) Stop() error {
	s.Driver.Stop()
	<-s.runDone
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	for range s.serveErr { // ServeErr's reader may already hold the value
	}
	return err
}
