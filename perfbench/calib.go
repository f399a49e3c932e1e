package main

import (
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared, and its speed moves in
// phases of a fraction of a second to minutes: the same workload ran
// 1.36× faster in one phase than in another, and 1.6× slower in a
// third. No statistic over one run's repetitions removes a phase that
// outlasts the run, so a fixed calibration kernel, which none of the
// repository's code takes part in, is timed at checkpoints around every
// repetition and between its sections, and each timing is reported
// scaled to the kernel's nominal speed (bench.norm). A phase of the
// host moves the kernel and the program together and cancels; a change
// to the program moves only the program. The raw figures stay in the
// run record beside the scaled ones.

// calibNominalMS sets the scale of normalized figures: a timing is
// reported as if the kernel had taken this long. It is the kernel's
// usual time on the 2-vCPU Intel Xeon host the benchmark was built on.
const calibNominalMS = 3.0

const (
	calibN     = 1 << 12 // map and sort size
	calibChase = 1 << 16 // pointer-chase ring size
)

var calib struct {
	keys []uint64
	m    map[uint64]int
	buf  []uint64
	next []int32
	sink uint64
}

func init() {
	x := uint64(0x9e3779b97f4a7c15)
	xorshift := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	calib.keys = make([]uint64, calibN)
	for i := range calib.keys {
		calib.keys[i] = xorshift()
	}
	calib.m = make(map[uint64]int, calibN)
	calib.buf = make([]uint64, calibN)
	// One cycle through every slot, in a scattered order.
	perm := make([]int32, calibChase)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := calibChase - 1; i > 0; i-- {
		j := int(xorshift() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	calib.next = make([]int32, calibChase)
	for i, p := range perm {
		calib.next[p] = perm[(i+1)%calibChase]
	}
}

// calibKernel does one fixed unit of work: map inserts and lookups,
// a sort and a pointer chase, the operations a compiler pass is made of.
func calibKernel() {
	var s uint64
	for round := 0; round < 4; round++ {
		clear(calib.m)
		for i, k := range calib.keys {
			calib.m[k>>uint(round)] = i
		}
		for _, k := range calib.keys {
			s += uint64(calib.m[k>>uint(round)])
		}
		for i, k := range calib.keys {
			calib.buf[i] = k >> uint(round*3)
		}
		sort.Slice(calib.buf, func(i, j int) bool { return calib.buf[i] < calib.buf[j] })
		s += calib.buf[calibN/2]
		p := int32(round)
		for i := 0; i < calibChase; i++ {
			p = calib.next[p]
		}
		s += uint64(p)
	}
	calib.sink = s
}

// calibrate times the kernel three times and returns the fastest, in
// ms, so a stray interrupt in one of them does not count. (The fastest
// tracked the program better than the mean of the three did.)
func calibrate() float64 {
	best := 0.0
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		calibKernel()
		if ms := float64(time.Since(t0)) / 1e6; i == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// The neighbours that slow the host do so one vCPU at a time: two
// copies of a fixed loop, pinned to the two vCPUs, each swung between
// 3.5 and 7 ms every second or so with no correlation between them.
// So each checkpoint times the kernel on every CPU the process may use
// and pins the whole process to the fastest until the next checkpoint;
// the program then runs on the quieter CPU, and normalization has less
// to correct.

// calibrateCPUs times the kernel on each CPU of cpus, pins the process
// to the fastest and returns its time and number. With one CPU, or when
// the process may not set its affinity, it times the kernel where the
// process runs and returns -1 for the CPU.
func calibrateCPUs(cpus []int) (float64, int) {
	if len(cpus) < 2 {
		return calibrate(), -1
	}
	best, bestCPU := 0.0, -1
	for _, c := range cpus {
		if pinProcess(c) != nil {
			return calibrate(), -1
		}
		if ms := calibrate(); bestCPU < 0 || ms < best {
			best, bestCPU = ms, c
		}
	}
	if pinProcess(bestCPU) != nil {
		return best, -1
	}
	return best, bestCPU
}

type cpuMask [16]uint64 // 1024 CPUs, as sched_setaffinity takes them

// allowedCPUs lists the CPUs the process may run on, or nil if the
// kernel does not say.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinProcess restricts every thread of the process to cpu. Threads the
// runtime starts later inherit the mask of the thread that starts them.
func pinProcess(cpu int) error {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
		if e != 0 && e != syscall.ESRCH { // ESRCH: the thread has exited
			return e
		}
	}
	return nil
}
