// Command lpbcast-node runs a live lpbcast process over UDP. Nodes form a
// gossip group: start a first node, then point later nodes at it with
// -join. Lines read from stdin are published to the group; deliveries are
// printed to stdout.
//
// Example (three terminals):
//
//	lpbcast-node -id 1 -bind 127.0.0.1:9001
//	lpbcast-node -id 2 -bind 127.0.0.1:9002 -join 1=127.0.0.1:9001
//	lpbcast-node -id 3 -bind 127.0.0.1:9003 -join 1=127.0.0.1:9001
//
// Then type into any terminal and watch the line arrive everywhere.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	lpbcast "repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lpbcast-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lpbcast-node", flag.ContinueOnError)
	var (
		idFlag   = fs.Uint64("id", 1, "process id, unique, from 1 to 2^32-1")
		bind     = fs.String("bind", "127.0.0.1:0", "UDP bind address")
		join     = fs.String("join", "", "bootstrap contact as id=host:port (empty for the first node)")
		interval = fs.Duration("interval", 200*time.Millisecond, "gossip period T")
		fanout   = fs.Int("fanout", 3, "gossip fanout F")
		viewSize = fs.Int("view", 15, "maximum view size l")
		stats    = fs.Duration("stats", 5*time.Second, "stats print period (0 disables)")
		protocol = fs.String("protocol", "lpbcast", "gossip protocol: lpbcast or pbcast (the §6.2 baseline)")
		ctlAddr  = fs.String("ctl-addr", "", "HTTP control-plane listen address, e.g. 127.0.0.1:8080 (empty disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *idFlag == 0 || *idFlag > math.MaxUint32 {
		return fmt.Errorf("-id must be from 1 to 2^32-1, got %d", *idFlag)
	}
	if *protocol != "lpbcast" && *protocol != "pbcast" {
		return fmt.Errorf("-protocol must be lpbcast or pbcast, got %q", *protocol)
	}
	id := lpbcast.ProcessID(*idFlag)

	tr, err := lpbcast.NewUDPTransport(id, *bind)
	if err != nil {
		return err
	}
	defer tr.Close()
	fmt.Printf("node %v listening on %s\n", id, tr.LocalAddr())

	opts := []lpbcast.Option{
		lpbcast.WithGossipInterval(*interval),
		lpbcast.WithFanout(*fanout),
		lpbcast.WithViewSize(*viewSize),
	}
	if *protocol == "pbcast" {
		// Same node, transport, and batching — the baseline protocol runs
		// behind the identical live API for head-to-head comparisons.
		opts = append(opts, lpbcast.WithEngine(lpbcast.PbcastEngine(lpbcast.PbcastConfig{
			Fanout:   *fanout,
			ViewSize: *viewSize,
		})))
	}
	var contact lpbcast.ProcessID
	if *join != "" {
		cid, addr, err := parsePeer(*join)
		if err != nil {
			return err
		}
		if err := tr.AddPeer(cid, addr); err != nil {
			return err
		}
		contact = cid
	}
	node, err := lpbcast.NewNode(id, tr, opts...)
	if err != nil {
		return err
	}
	node.Start()
	defer node.Close()

	if *ctlAddr != "" {
		ln, err := net.Listen("tcp", *ctlAddr)
		if err != nil {
			return fmt.Errorf("control plane: %w", err)
		}
		defer ln.Close()
		fmt.Printf("control plane on http://%s (try /metrics, /nodes/%d)\n", ln.Addr(), id)
		go func() {
			srv := &http.Server{Handler: lpbcast.NewControlHandler(node)}
			_ = srv.Serve(ln)
		}()
	}

	if contact != lpbcast.NilProcess {
		if err := node.JoinAndWait(contact, 10*time.Second); err != nil {
			return err
		}
		fmt.Printf("joined via %v; view: %v\n", contact, node.View())
	}

	// Deliveries to stdout.
	go func() {
		for ev := range node.Deliveries() {
			if ev.ID.Origin == id {
				continue // our own publications echo locally
			}
			fmt.Printf("[%s] %s\n", ev.ID, string(ev.Payload))
		}
	}()

	// Periodic stats.
	stop := make(chan struct{})
	if *stats > 0 {
		go func() {
			t := time.NewTicker(*stats)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					s := node.Stats()
					fmt.Printf("-- view=%d gossips tx/rx=%d/%d delivered=%d dups=%d\n",
						len(node.View()), s.GossipsSent, s.GossipsReceived,
						s.EventsDelivered, s.DuplicatesDropped)
				}
			}
		}()
	}

	// Publish lines from stdin; leave on SIGINT/SIGTERM.
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	for {
		select {
		case line, ok := <-lines:
			if !ok {
				close(stop)
				return leave(node, *interval)
			}
			if strings.TrimSpace(line) == "" {
				continue
			}
			if _, err := node.Publish([]byte(line)); err != nil {
				return err
			}
		case <-sigs:
			fmt.Println("\nleaving the group...")
			close(stop)
			return leave(node, *interval)
		}
	}
}

// leave gossips the unsubscription for a grace period before exiting.
func leave(node *lpbcast.Node, interval time.Duration) error {
	if err := node.Leave(); err != nil {
		// Engines without graceful departure (the pbcast baseline) exit
		// silently — their peers treat it as a crash, which is the
		// protocol's normal departure mode.
		fmt.Println("leaving without unsubscription:", err)
		return nil
	}
	time.Sleep(5 * interval)
	return nil
}

// parsePeer parses "id=host:port".
func parsePeer(s string) (lpbcast.ProcessID, string, error) {
	idStr, addr, ok := strings.Cut(s, "=")
	if !ok {
		return 0, "", fmt.Errorf("bad -join %q, want id=host:port", s)
	}
	id, err := strconv.ParseUint(idStr, 10, 32)
	if err != nil || id == 0 {
		return 0, "", fmt.Errorf("bad peer id %q", idStr)
	}
	return lpbcast.ProcessID(id), addr, nil
}
