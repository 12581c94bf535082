// Package leakcheck is a goroutine-leak check for test binaries. A package
// whose code starts goroutines (the service, the experiment runner, the
// sampler) runs its tests through Main, so a goroutine that outlives the
// test that started it fails the package instead of leaking in production.
package leakcheck

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// settle bounds how long Main waits for goroutines that are already on
// their way out (a worker draining after Shutdown, a closed connection's
// reader) before it calls the rest leaks.
const settle = 5 * time.Second

// Main is a whole TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// It records the goroutine count, runs the tests, and, if they passed, waits
// up to settle for the count to return to the recorded value. If it does
// not, Main prints the goroutine profile and exits 1.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		// Idle keep-alive connections of the default client each park two
		// goroutines; they belong to the client, not to the code under test.
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(settle)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines still running after the tests, %d before them\n", n, before)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
	}
	os.Exit(code)
}
