// Command lxpd serves an XML document (or a generated demo catalog)
// over the LXP protocol on TCP, so mixq — or any MIX mediator — can use
// it as a remote source:
//
//	lxpd -addr :7070 -file catalog.xml -chunk 20 -inline 64
//	lxpd -addr :7070 -demo books -n 5000
//	mixq -src amazon=lxp://localhost:7070/doc -q '...'
//
// -demo kind -n N serves workload.Demo(kind, "demo", N): the dataset a
// demo:kind:N source declaration of mixd or mixq stands for, with books
// titled after the store "demo".
//
// -log-level and -log-json shape the structured log on stderr;
// -slow-ms warn-logs requests that take at least that long to serve.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mix/internal/cli"
	"mix/internal/lxp"
	"mix/internal/telemetry"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := cli.Exit("lxpd", run(ctx, os.Args[1:], os.Stderr), os.Stderr)
	stop()
	os.Exit(code)
}

// run is lxpd with the command line args, logging to stderr: it serves
// until ctx is done, then drains its connections.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("lxpd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	file := fs.String("file", "", "XML document to serve")
	demo := fs.String("demo", "", "serve a generated dataset instead: books | homes | schools")
	n := fs.Int("n", 1000, "size of the generated dataset")
	chunk := fs.Int("chunk", 20, "children in the first fill of a child list; later fills of the same list grow to at most 4x (0 = all at once)")
	inline := fs.Int("inline", 64, "max subtree size returned inline (0 = always inline)")
	grace := fs.Duration("grace", 5*time.Second, "drain deadline for graceful shutdown")
	slowMs := fs.Int("slow-ms", 0, "warn-log requests that take at least this long to serve (0 = off)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := fs.Bool("log-json", false, "emit logs as JSON")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	logger, err := telemetry.NewLogger(stderr, *logLevel, *logJSON)
	if err != nil {
		return cli.Usage(err)
	}

	var doc *xmltree.Tree
	switch {
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		if doc, err = xmltree.UnmarshalXML(string(data)); err != nil {
			return fmt.Errorf("parsing %s: %w", *file, err)
		}
	case *demo != "":
		if doc, err = workload.Demo(*demo, "demo", *n); err != nil {
			return cli.Usage(err)
		}
	default:
		return cli.Usage(errors.New("need -file or -demo (books|homes|schools)"))
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("serving", "addr", l.Addr().String(),
		"nodes", doc.Size(), "chunk", *chunk, "inline", *inline)
	srv := lxp.NewTCPServer(&lxp.TreeServer{Tree: doc, Chunk: *chunk, InlineLimit: *inline})
	if *slowMs > 0 {
		srv.SlowThreshold = time.Duration(*slowMs) * time.Millisecond
		srv.Logger = logger
	}

	err = cli.Serve(ctx, logger, srv, l, *grace, "connections")
	logger.Info("bye")
	return err
}
