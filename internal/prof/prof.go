// Package prof gives a command the go test profiling flags: -cpuprofile
// and -memprofile, written with runtime/pprof so `go tool pprof` reads
// them. A binary that does the simulator's work can then say where its
// time and memory went without a patched build.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile paths registered on a flag set.
type Flags struct {
	cpu, mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.mem, "memprofile", "", "write a heap profile taken at the end of the run to this file")
	return f
}

// Start begins the CPU profile, if one was asked for. The returned stop
// function ends it and writes the heap profile; defer it with the address
// of the command's error result, which it sets when the run itself
// succeeded and a profile could not be written.
func (f *Flags) Start() (stop func(*error), err error) {
	var cpu *os.File
	if f.cpu != "" {
		if cpu, err = os.Create(f.cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func(errp *error) {
		if err := f.stop(cpu); err != nil && *errp == nil {
			*errp = err
		}
	}, nil
}

func (f *Flags) stop(cpu *os.File) error {
	if cpu != nil {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if f.mem == "" {
		return nil
	}
	mem, err := os.Create(f.mem)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC() // so the profile holds what is live, not what is garbage
	err = pprof.WriteHeapProfile(mem)
	if cerr := mem.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
