// mocha-dap runs a Data Access Provider over a storage directory,
// serving plan fragments and shipped code from a QPC.
//
// Usage:
//
//	mocha-dap -site maryland -data /var/mocha/maryland -listen :7701
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"mocha/internal/dap"
	"mocha/internal/obs"
	"mocha/internal/storage"
)

func main() {
	site := flag.String("site", "site1", "site name reported in statistics")
	data := flag.String("data", "", "storage directory (created by mocha-datagen); empty = in-memory")
	listen := flag.String("listen", ":7701", "TCP listen address")
	noCache := flag.Bool("no-code-cache", false, "disable the class cache (re-ship code every query)")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "close a session idle this long between requests (0 = never)")
	frameTimeout := flag.Duration("frame-timeout", 30*time.Second, "per-frame write bound; a QPC that stops draining fails the session (0 = unbounded)")
	pprofAddr := flag.String("pprof-addr", "", "serve /metrics and /debug/pprof on this address (empty = disabled)")
	quiet := flag.Bool("quiet", false, "suppress per-session logging")
	flag.Parse()

	store, err := storage.OpenStore(*data, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	if tables := store.TableNames(); len(tables) > 0 {
		fmt.Printf("mocha-dap %s: serving tables %s\n", *site, strings.Join(tables, ", "))
	} else {
		fmt.Printf("mocha-dap %s: empty store (use mocha-datagen)\n", *site)
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv := dap.New(dap.Config{
		Site:             *site,
		Driver:           &dap.StorageDriver{Store: store},
		DisableCodeCache: *noCache,
		IdleTimeout:      *idleTimeout,
		FrameTimeout:     *frameTimeout,
		Logf:             logf,
	})
	obs.ServeDebug(*pprofAddr, srv.Metrics(), logf)
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mocha-dap %s: listening on %s\n", *site, l.Addr())
	if err := srv.Serve(l); err != nil {
		log.Fatal(err)
	}
}
