// Command pakstore inspects, verifies, migrates and garbage-collects a
// pakd result-store directory (the -store-dir of cmd/pakd): the
// operator's window into the persistent tier.
//
// Usage:
//
//	pakstore -dir DIR            summary: entry count, integrity state and
//	                             how many entries each layout holds
//	pakstore -dir DIR -list      one line per entry: key, layout, system,
//	                             query kind
//	pakstore -dir DIR -verify    re-check every entry; exit 1 if any is corrupt
//	pakstore -dir DIR -migrate   rewrite every verified layout1 entry as
//	                             layout2; exit 1 if any entry is left behind
//	pakstore -dir DIR -gc N      keep the N most recently written entries,
//	                             delete the rest
//
// Every entry is content-addressed and carries its own canonical
// coordinates — see DESIGN.md "Persistent results" — so -list needs no
// registry and works on any store directory. An entry is in one of two
// layouts: layout1, the v1 JSON envelope that stores written before
// layout 2 hold, or layout2, the checksummed binary frame pakd writes
// now. pakd serves both, at the same addresses. -verify is the offline
// version of the check pakd performs on every read: an entry that fails
// it is named and counted, and pakd would refuse to serve it (counting
// it under the "corrupt" stat and recomputing instead). -migrate reads
// each layout1 entry through that same check and writes it back as
// layout2; corrupt entries stay in place and are named, and a second
// run changes nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pak/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pakstore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "result store directory (pakd's -store-dir)")
	list := fs.Bool("list", false, "list every entry: key, layout, system spec, query kind")
	verify := fs.Bool("verify", false, "re-check every entry; exit 1 on any corruption")
	migrate := fs.Bool("migrate", false, "rewrite every verified layout1 entry as layout2; exit 1 if any entry is left behind")
	gc := fs.Int("gc", -1, "keep the N most recently written entries, delete the rest (-1 = off)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage: pakstore -dir DIR [-list | -verify | -migrate | -gc N]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, `
Examples:
  pakstore -dir /var/lib/pak             entry count + integrity summary
  pakstore -dir /var/lib/pak -list       what is stored, one line per entry
  pakstore -dir /var/lib/pak -verify     offline integrity sweep (exit 1 on corruption)
  pakstore -dir /var/lib/pak -migrate    rewrite v1 (layout1) entries as layout2
  pakstore -dir /var/lib/pak -gc 10000   bound the store to its 10000 newest entries
`)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "pakstore: set -dir to a result store directory")
		return 2
	}
	d, err := store.OpenDisk(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "pakstore: %v\n", err)
		return 2
	}

	switch {
	case *gc >= 0:
		removed, err := d.GC(*gc)
		if err != nil {
			fmt.Fprintf(stderr, "pakstore: %v\n", err)
			return 1
		}
		n, _ := d.Len()
		fmt.Fprintf(stdout, "pakstore: removed %d entries, %d kept\n", removed, n)
		return 0

	case *migrate:
		keys, err := d.Keys()
		if err != nil {
			fmt.Fprintf(stderr, "pakstore: %v\n", err)
			return 1
		}
		migrated, left := 0, 0
		for _, k := range keys {
			e, layout, err := d.Read(k)
			switch {
			case err != nil:
				fmt.Fprintf(stdout, "CORRUPT %s\n", k)
				left++
			case layout == store.Layout1:
				if err := d.Put(e); err != nil {
					fmt.Fprintf(stdout, "FAILED %s: %v\n", k, err)
					left++
					continue
				}
				migrated++
			}
		}
		fmt.Fprintf(stdout, "pakstore: migrated %d of %d entries to layout2\n", migrated, len(keys))
		if left > 0 {
			fmt.Fprintf(stderr, "pakstore: %d entries left in place\n", left)
			return 1
		}
		return 0

	case *list:
		keys, err := d.Keys()
		if err != nil {
			fmt.Fprintf(stderr, "pakstore: %v\n", err)
			return 1
		}
		for _, k := range keys {
			e, layout, err := d.Read(k)
			if err != nil {
				fmt.Fprintf(stdout, "%s  CORRUPT  %v\n", k, err)
				continue
			}
			fmt.Fprintf(stdout, "%s  %s  %s  %s\n", k, layout, e.System, queryKind(e.Query))
		}
		return 0

	case *verify:
		bad, err := d.Verify()
		if err != nil {
			fmt.Fprintf(stderr, "pakstore: %v\n", err)
			return 1
		}
		n, _ := d.Len()
		if len(bad) > 0 {
			for _, k := range bad {
				fmt.Fprintf(stdout, "CORRUPT %s\n", k)
			}
			fmt.Fprintf(stderr, "pakstore: %d of %d entries corrupt\n", len(bad), n)
			return 1
		}
		fmt.Fprintf(stdout, "pakstore: %d entries, all verified\n", n)
		return 0

	default:
		keys, err := d.Keys()
		if err != nil {
			fmt.Fprintf(stderr, "pakstore: %v\n", err)
			return 1
		}
		var corrupt int
		layouts := map[store.Layout]int{}
		for _, k := range keys {
			if _, layout, err := d.Read(k); err != nil {
				corrupt++
			} else {
				layouts[layout]++
			}
		}
		fmt.Fprintf(stdout, "pakstore: %d entries in %s (%d corrupt); %d %s, %d %s\n", len(keys), d.Dir(), corrupt,
			layouts[store.Layout1], store.Layout1, layouts[store.Layout2], store.Layout2)
		return 0
	}
}

// queryKind extracts the "kind" of a stored canonical query document
// for the -list rendering (the document is self-describing JSON).
func queryKind(doc []byte) string {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(doc, &probe); err != nil || probe.Kind == "" {
		return "?"
	}
	return probe.Kind
}
