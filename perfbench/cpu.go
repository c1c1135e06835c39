package main

import "syscall"

// cpuNS returns the CPU time, user plus system, that this process and
// its waited-for children have used so far, in nanoseconds. A
// paravirtualized Linux guest leaves out CPU steal, the time the
// hypervisor gave the vCPU to other guests, so unlike wall time it does
// not grow when other guests take the CPU.
func cpuNS() int64 {
	var total int64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			total += syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)
		}
	}
	return total
}

// rusageThread is RUSAGE_THREAD, which the syscall package does not
// name: getrusage for the calling thread only.
const rusageThread = 1

// threadCPUNS returns the CPU time, user plus system, of the calling
// OS thread, in nanoseconds; the caller locks its goroutine to the
// thread for as long as it measures.
func threadCPUNS() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(rusageThread, &ru) != nil {
		return 0
	}
	return syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)
}
