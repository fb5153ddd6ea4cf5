// Command routegen builds the routing tables for a topology and prints the
// static route statistics quoted in §4.7.1 of the paper: the fraction of
// minimal paths, average distances, and average in-transit buffers per
// route for UP/DOWN, ITB-SP, and ITB-RR. With -dump it also prints every
// route of a source-destination switch pair.
//
// Examples:
//
//	routegen -topo torus -scale paper
//	routegen -topo torus -dump 4:1      # routes from switch 4 to switch 1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"itbsim/internal/cli"
	"itbsim/internal/experiments"
	"itbsim/internal/routes"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("routegen: ")
	fs := flag.NewFlagSet("routegen", flag.ExitOnError)
	common := cli.AddCommon(fs)
	dump := fs.String("dump", "", "dump routes for a switch pair, e.g. 4:1")
	out := fs.String("o", "", "write the routing table for -scheme to this file as JSON")
	scheme := fs.String("scheme", "itb-rr", "scheme to export with -o")
	if err := fs.Parse(os.Args[1:]); err != nil {
		log.Fatal(err)
	}

	env, err := common.Env()
	if err != nil {
		log.Fatal(err)
	}
	report, err := experiments.StaticRouteReport(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)

	if *out != "" {
		sch, err := routes.ParseScheme(*scheme)
		if err != nil {
			log.Fatal(err)
		}
		tab, err := env.Table(sch)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := routes.Encode(f, tab); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s table to %s\n", sch, *out)
	}

	if *dump == "" {
		return
	}
	parts := strings.SplitN(*dump, ":", 2)
	if len(parts) != 2 {
		log.Fatalf("bad -dump %q, want src:dst", *dump)
	}
	src, err1 := strconv.Atoi(parts[0])
	dst, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || src < 0 || dst < 0 || src >= env.Net.Switches || dst >= env.Net.Switches {
		log.Fatalf("bad -dump %q: switch IDs must be in [0,%d)", *dump, env.Net.Switches)
	}
	for _, sch := range experiments.AllSchemes {
		tab, err := env.Table(sch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s routes, switch %d -> %d:\n", sch, src, dst)
		for i, r := range tab.Alternatives(src, dst) {
			fmt.Printf("  alt %d: %s\n", i, formatRoute(env, r))
		}
	}
}

func formatRoute(env *experiments.Env, r *routes.Route) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d hops, %d ITBs:", r.Hops, r.NumITBs())
	cur := r.SrcSwitch
	for i, seg := range r.Segs {
		fmt.Fprintf(&b, " [%d", cur)
		for _, c := range seg.Channels {
			_, to := env.Net.ChannelEnds(c)
			fmt.Fprintf(&b, " %d", to)
			cur = to
		}
		b.WriteString("]")
		if i < len(r.Segs)-1 {
			fmt.Fprintf(&b, " itb@host%d", seg.ITBHost)
		}
	}
	return b.String()
}
