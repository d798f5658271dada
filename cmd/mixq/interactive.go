package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/xmltree"
)

// interact is the BBQ-flavored navigation shell of Section 5: the user
// explores the virtual answer document command by command, watching it
// unfold. Commands mirror DOM-VXD:
//
//	d        down  — first child
//	r        right — next sibling
//	u        up    — back to the parent (client-side stack)
//	f        fetch — print the current label
//	t        tree  — materialize and print the current subtree
//	s NAME   select — first child named NAME
//	?        help
//	q        quit
//
// The shell starts at the root of doc. after, when non-nil, runs after
// every command that touched the document — the hook `mixq -trace` uses
// to print the navigation's fan-out tree.
func interact(doc nav.Document, in io.Reader, out io.Writer, after func(io.Writer)) error {
	cur, err := mediator.Wrap(doc)
	if err != nil {
		return err
	}
	var stack []*mediator.Element
	name, err := cur.Name()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "at <%s>  (d/r/u/f/t/s NAME/q, ? for help)\n", name)
	if after == nil {
		after = func(io.Writer) {}
	}
	after(out) // the prompt banner already fetched the root's name

	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "> ")
		if !sc.Scan() {
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		cmd, arg, _ := strings.Cut(line, " ")
		switch cmd {
		case "", "?":
			fmt.Fprintln(out, "d=down r=right u=up f=fetch t=print subtree s NAME=select child q=quit")
		case "q", "quit", "exit":
			return nil
		case "d":
			next, err := cur.FirstChild()
			if err != nil {
				return err
			}
			if next == nil {
				fmt.Fprintln(out, "⊥ (leaf)")
				after(out)
				continue
			}
			stack = append(stack, cur)
			cur = next
			printAt(out, cur)
		case "r":
			next, err := cur.NextSibling()
			if err != nil {
				return err
			}
			if next == nil {
				fmt.Fprintln(out, "⊥ (no right sibling)")
				after(out)
				continue
			}
			cur = next
			printAt(out, cur)
		case "u":
			if len(stack) == 0 {
				fmt.Fprintln(out, "⊥ (at the root)")
				continue
			}
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			printAt(out, cur)
		case "f":
			printAt(out, cur)
		case "t":
			t, err := cur.Materialize()
			if err != nil {
				return err
			}
			fmt.Fprint(out, xmltree.MarshalIndent(t))
		case "s":
			if arg == "" {
				fmt.Fprintln(out, "usage: s NAME")
				continue
			}
			next, err := cur.Child(arg)
			if err != nil {
				return err
			}
			if next == nil {
				fmt.Fprintf(out, "⊥ (no child %q)\n", arg)
				after(out)
				continue
			}
			stack = append(stack, cur)
			cur = next
			printAt(out, cur)
		default:
			fmt.Fprintf(out, "unknown command %q (? for help)\n", cmd)
		}
		switch cmd {
		case "d", "r", "f", "t", "s":
			after(out) // these touched the document (u is client-side)
		}
	}
}

func printAt(out io.Writer, e *mediator.Element) {
	name, err := e.Name()
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(out, "at <%s>\n", name)
}
