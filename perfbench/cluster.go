package main

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
)

// A rig is one deployed cluster: storage nodes, the transport to them,
// the bag store and the compute cluster. Both builders go through
// core.NewClusterOverStore so that the traced run can put its client and
// handler wrappers in; with a nil tracer the wrappers are absent and the
// rig is wired exactly as the deployment wires it.
type rig struct {
	cluster *core.Cluster
	store   *bag.Store
	stop    func()
}

// close shuts the rig down and hands its memory back to the OS, so that
// the peak RSS of a later rig in the same run does not include an
// earlier rig's garbage.
func (r *rig) close() {
	r.stop()
	debug.FreeOSMemory()
}

func nodeNames() []string {
	names := make([]string, storageNodes)
	for i := range names {
		names[i] = fmt.Sprintf("storage-%d", i)
	}
	return names
}

// inprocRig builds the embedded cluster core.NewCluster would: in-process
// storage nodes behind the in-process transport, with the "inproc" meter
// on the transport and each node bound to the cluster's observer.
func inprocRig(cfg core.ClusterConfig, t *tracer) (*rig, error) {
	o := obs.New(obs.DefaultTraceCap)
	cfg.Obs = o
	inproc := transport.NewInProc()
	inproc.Bind(transport.NewMeter(o, "inproc", "", cfg.SlowOpThreshold))
	names := nodeNames()
	for _, name := range names {
		node := storage.NewNode(name)
		node.Bind(o, cfg.SlowOpThreshold)
		inproc.Register(name, t.handler(node))
	}
	store, err := bag.NewStore(bag.Config{Nodes: names, Client: t.client(inproc), ChunkSize: chunkSize})
	if err != nil {
		return nil, err
	}
	c := core.NewClusterOverStore(store, cfg)
	return &rig{cluster: c, store: store, stop: c.Shutdown}, nil
}

// tcpRig builds the -serve deployment in one process: each storage node
// is wired as hurricane-storage wires it (its own observer, a "server"
// meter on a loopback TCP listener, the telemetry sampler), and the
// cluster reaches them through a TCP client carrying serve.go's "client"
// meter.
func tcpRig(cfg core.ClusterConfig, t *tracer) (*rig, error) {
	o := obs.New(0)
	cfg.Obs = o
	var (
		servers []*transport.TCPServer
		done    = make(chan struct{})
		wg      sync.WaitGroup
	)
	stopNodes := func() {
		close(done)
		wg.Wait()
		for _, s := range servers {
			s.Close()
		}
	}
	names := nodeNames()
	addrs := make(map[string]string, len(names))
	for _, name := range names {
		node := storage.NewNode(name)
		no := obs.New(0)
		node.Bind(no, 0)
		rec := obs.NewRecorder(0)
		rec.AddSource(obs.RegistrySource(no.Registry()))
		watch := obs.NewWatch(no, nil)
		node.BindTelemetry(rec, watch)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					watch.Eval(rec.Sample())
				case <-done:
					return
				}
			}
		}()
		srv := transport.NewTCPServer(t.handler(node))
		srv.Bind(transport.NewMeter(no, "server", name, 0))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			stopNodes()
			return nil, fmt.Errorf("storage listener %s: %w", name, err)
		}
		servers = append(servers, srv)
		addrs[name] = addr
	}
	client := transport.NewTCPClient(addrs)
	client.Bind(transport.NewMeter(o, "client", "", 0))
	store, err := bag.NewStore(bag.Config{Nodes: names, Client: t.client(client), ChunkSize: chunkSize})
	if err != nil {
		client.Close()
		stopNodes()
		return nil, err
	}
	c := core.NewClusterOverStore(store, cfg)
	return &rig{cluster: c, store: store, stop: func() {
		c.Shutdown()
		client.Close()
		stopNodes()
	}}, nil
}
