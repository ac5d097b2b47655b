package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/client"
	"repro/internal/service"
)

// senders is both the number of sender goroutines and the connection
// cap: one per vCPU of the 2-vCPU machine the benchmark is sized for.
const senders = 2

// env is one server under test on a loopback TCP listener and the SDK
// client that drives it.
type env struct {
	srv  *service.Server
	hs   *http.Server
	done chan error // Serve's return value
	tr   *http.Transport
	cl   *client.Client
}

// newEnv boots a service.Server with Workers = senders and otherwise
// default settings (plus storeDir when non-empty). A non-nil tracer
// wraps the handler and the client transport with spans; both pass
// straight through while the tracer is off.
func newEnv(storeDir string, t *tracer) (*env, error) {
	srv, err := service.NewServer(service.Config{Workers: senders, StoreDir: storeDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv
	tr := &http.Transport{
		MaxConnsPerHost:     senders,
		MaxIdleConnsPerHost: senders,
		DisableCompression:  true,
	}
	var rt http.RoundTripper = tr
	if t != nil {
		h = tracedHandler(t, srv)
		rt = tracedRT{t: t, base: tr}
	}
	e := &env{srv: srv, hs: &http.Server{Handler: h}, done: make(chan error, 1), tr: tr}
	go func() { e.done <- e.hs.Serve(ln) }()
	e.cl, err = client.NewFromConfig(client.Config{
		Endpoints:  []string{"http://" + ln.Addr().String()},
		Retry:      client.Retry{Retries: -1}, // a failure must count, not be retried away
		HTTPClient: &http.Client{Transport: rt, Timeout: time.Minute},
	})
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the HTTP server, waits for its Serve loop, and closes
// the service (which waits for running jobs).
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, fmt.Errorf("serve: %w", serr))
	}
	e.tr.CloseIdleConnections()
	e.srv.Close()
	return err
}
