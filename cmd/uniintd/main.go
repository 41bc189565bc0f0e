// Command uniintd is the appliance-side daemon: it assembles the home
// network (HAVi middleware + appliance simulators), runs the home
// appliance application that generates the composed control panel, and
// exports the panel's display session over the universal interaction
// protocol on a TCP listener.
//
// Connect with cmd/uniint-proxy:
//
//	uniintd -listen :5900 -appliances tv,vcr,amplifier,aircon,lamp
//	uniint-proxy -server localhost:5900
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"uniint"
	"uniint/internal/appliance"
)

func main() {
	listen := flag.String("listen", ":5900", "address to serve the universal interaction protocol on")
	appliances := flag.String("appliances", "tv,vcr,amplifier,aircon,lamp",
		"comma-separated appliance classes to put on the home network")
	tick := flag.Duration("tick", 200*time.Millisecond, "hardware simulation tick interval (0 disables)")
	width := flag.Int("width", 640, "desktop width")
	height := flag.Int("height", 480, "desktop height")
	flag.Parse()

	if err := run(*listen, *appliances, *tick, *width, *height); err != nil {
		fmt.Fprintln(os.Stderr, "uniintd:", err)
		os.Exit(1)
	}
}

func run(listen, classes string, tick time.Duration, width, height int) error {
	var apps []appliance.Appliance
	counts := map[string]int{}
	for _, class := range strings.Split(classes, ",") {
		class = strings.TrimSpace(class)
		if class == "" {
			continue
		}
		counts[class]++
		name := fmt.Sprintf("%s-%d", strings.ToUpper(class[:1])+class[1:], counts[class])
		a, err := appliance.New(class, name)
		if err != nil {
			return err
		}
		apps = append(apps, a)
		fmt.Printf("attached %-12s (%s)\n", name, class)
	}
	s, err := uniint.NewSessionForHub(uniint.Options{
		Width: width, Height: height, Name: "uniintd home session", Appliances: apps,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	if tick > 0 {
		s.Home.StartTicker(tick)
	}
	s.WaitIdle()
	fmt.Println("control panels:", s.App.PanelInventory())

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("serving universal interaction protocol on %s\n", ln.Addr())

	// Serve until interrupted.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	select {
	case <-sig:
		fmt.Println("\nshutting down")
		ln.Close()
		<-serveErr
		return nil
	case err := <-serveErr:
		return err
	}
}
