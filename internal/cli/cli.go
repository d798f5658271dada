// Package cli is what the mix commands (mixd, mixq, lxpd, mixbench)
// share around their run functions: a usage error, the exit status of
// the error a run returns, and the serving loop of the two daemons.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"time"
)

// usageError is a malformed command line; reported when the flag
// package has printed it, with the usage, already.
type usageError struct {
	error
	reported bool
}

// Usage marks err as a malformed command line.
func Usage(err error) error { return usageError{error: err} }

// Parse parses args with fs, which reports a malformed command line
// itself.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && err != flag.ErrHelp {
		return usageError{err, true}
	}
	return err
}

// Exit reports err on stderr under the command's name, unless the flag
// package has, and returns the command's exit status for it: 0 for none
// or -help, 2 for a malformed command line, 1 otherwise.
func Exit(name string, err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	var usage usageError
	if !errors.As(err, &usage) || !usage.reported {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
	}
	if usage.error != nil {
		return 2
	}
	return 1
}

// Server is a server Serve runs: mixd's VXDP server or lxpd's LXP one.
type Server interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// Serve runs srv on l until ctx is done, then shuts srv down, giving
// what it holds open — held names it in the log — grace to drain. It
// returns the error of a Serve that failed on its own, after the same
// shutdown.
func Serve(ctx context.Context, log *slog.Logger, srv Server, l net.Listener, grace time.Duration, held string) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	var err error
	select {
	case err = <-errc:
		log.Error("serve", "err", err.Error())
	case <-ctx.Done():
		log.Info("signal received; draining " + held)
	}
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Warn("shutdown expired; "+held+" force-closed", "err", err.Error())
	}
	if err == nil {
		<-errc // nil, or the error of a Serve that lost the race with Shutdown
	}
	return err
}
