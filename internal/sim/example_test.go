package sim_test

import (
	"fmt"

	"ossd/internal/sim"
)

// ExampleEngine shows the discrete-event pattern every device model in
// this repository uses: schedule a callback with its payload, run,
// observe the virtual clock.
func ExampleEngine() {
	eng := sim.NewEngine()
	done := func(op any) { fmt.Println(op, "done at", eng.Now()) }
	eng.Call(2*sim.Millisecond, done, "erase")
	eng.Call(200*sim.Microsecond, done, "program")
	eng.Run()
	fmt.Println("clock:", eng.Now())
	// Output:
	// program done at 200.000us
	// erase done at 2.000ms
	// clock: 2.000ms
}
