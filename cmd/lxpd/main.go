// Command lxpd serves an XML document (or a generated demo catalog)
// over the LXP protocol on TCP, so mixq — or any MIX mediator — can use
// it as a remote source:
//
//	lxpd -addr :7070 -file catalog.xml -chunk 20 -inline 64
//	lxpd -addr :7070 -demo books -n 5000
//	mixq -src amazon=lxp://localhost:7070/doc -q '...'
//
// -log-level and -log-json shape the structured log on stderr;
// -slow-ms warn-logs requests that take at least that long to serve.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mix/internal/lxp"
	"mix/internal/telemetry"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	file := flag.String("file", "", "XML document to serve")
	demo := flag.String("demo", "", "serve a generated dataset instead: books | homes | schools")
	n := flag.Int("n", 1000, "size of the generated dataset")
	chunk := flag.Int("chunk", 20, "children in the first fill of a child list; later fills of the same list grow to at most 4x (0 = all at once)")
	inline := flag.Int("inline", 64, "max subtree size returned inline (0 = always inline)")
	grace := flag.Duration("grace", 5*time.Second, "drain deadline for graceful shutdown")
	slowMs := flag.Int("slow-ms", 0, "warn-log requests that take at least this long to serve (0 = off)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lxpd: %v\n", err)
		os.Exit(2)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	var doc *xmltree.Tree
	switch {
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal("reading document", "err", err.Error())
		}
		doc, err = xmltree.UnmarshalXML(string(data))
		if err != nil {
			fatal("parsing document", "file", *file, "err", err.Error())
		}
	case *demo == "books":
		doc = workload.Books("demo", *n, 1)
	case *demo == "homes":
		doc, _ = workload.HomesSchools(*n, 0, *n/10+1, 1)
	case *demo == "schools":
		_, doc = workload.HomesSchools(0, *n, *n/10+1, 1)
	default:
		fmt.Fprintln(os.Stderr, "lxpd: need -file or -demo (books|homes|schools)")
		os.Exit(2)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listening", "addr", *addr, "err", err.Error())
	}
	logger.Info("serving", "addr", l.Addr().String(),
		"nodes", doc.Size(), "chunk", *chunk, "inline", *inline)
	srv := lxp.NewTCPServer(&lxp.TreeServer{Tree: doc, Chunk: *chunk, InlineLimit: *inline})
	if *slowMs > 0 {
		srv.SlowThreshold = time.Duration(*slowMs) * time.Millisecond
		srv.Logger = logger
	}

	// On SIGINT/SIGTERM: stop accepting, drain in-flight connections
	// with a deadline, exit 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		if err != nil {
			fatal("serve", "err", err.Error())
		}
	case <-ctx.Done():
		stop()
		logger.Info("signal received; draining connections")
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Warn("shutdown expired; connections force-closed", "err", err.Error())
		}
		<-errc
		logger.Info("bye")
	}
}
