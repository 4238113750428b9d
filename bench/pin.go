package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// CPU placement. On a box with two or more CPUs the load generator (this
// process) runs on the first CPU it is allowed and the whole cluster
// (distributor and both back ends) on the second, so the generator never
// takes cycles from the system it measures and no process of the cluster
// migrates. On the two-vCPU sandbox this was written on, a wake-up that
// crosses CPUs costs a hypervisor exit; left to the scheduler, how many
// wake-ups cross changes from second to second and runs of one commit
// range over 13-15 %. Placed, they range over 3-6 % (README, "What the
// box allows"). With one CPU nothing is placed.

// cpusetEnv carries the CPUs the harness was allowed before it bound
// itself to the first of them; its presence marks the re-executed process.
const cpusetEnv = "BENCH_CPUSET"

// placement is who runs where; all empty = nothing is placed.
var placement struct {
	all     []int // every CPU the harness was started on
	load    []int // this process
	cluster []int // distributor and back ends
}

// cpuMask is a kernel CPU set of 1024 bits.
type cpuMask [16]uint64

// allowedCPUs returns the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return nil, e
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// bindThread binds the calling OS thread to cpus.
func bindThread(cpus []int) error {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

func formatCPUs(cpus []int) string {
	s := make([]string, len(cpus))
	for i, c := range cpus {
		s[i] = strconv.Itoa(c)
	}
	return strings.Join(s, ",")
}

// pinSelf binds the harness to its CPU. A running Go process cannot move
// the threads its runtime already started, so it binds one thread and
// re-executes itself from it: the new image inherits the binding on every
// thread and sizes GOMAXPROCS to it.
func pinSelf() error {
	if set := os.Getenv(cpusetEnv); set != "" {
		for _, f := range strings.Split(set, ",") {
			c, err := strconv.Atoi(f)
			if err != nil {
				return fmt.Errorf("%s=%q: %w", cpusetEnv, set, err)
			}
			placement.all = append(placement.all, c)
		}
		if len(placement.all) < 2 {
			return fmt.Errorf("%s=%q names fewer than two CPUs", cpusetEnv, set)
		}
		placement.load, placement.cluster = placement.all[:1], placement.all[1:2]
		return nil
	}
	cpus, err := allowedCPUs()
	if err != nil || len(cpus) < 2 {
		return nil // one CPU, or a kernel that will not say: run unplaced
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	runtime.LockOSThread()
	if err := bindThread(cpus[:1]); err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, append(os.Environ(), cpusetEnv+"="+formatCPUs(cpus)))
}

// startOn starts cmd bound to cpus (nil = wherever this process runs). A
// child inherits the binding of the thread that forks it, so the calling
// goroutine holds one thread, binds it, forks, and binds it back.
func startOn(cmd *exec.Cmd, cpus []int) error {
	if len(cpus) == 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := bindThread(cpus); err != nil {
		return err
	}
	err := cmd.Start()
	if berr := bindThread(placement.load); err == nil {
		err = berr
	}
	return err
}
