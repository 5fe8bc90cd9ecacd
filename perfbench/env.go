package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// runEnv is the machine context printed with every run, never gated:
// the numbers only compare between runs made on the same kind of box.
type runEnv struct {
	fsType      string
	cpuModel    string
	steal, tot0 uint64
}

// fsMagic names the filesystems a cache directory is likely to sit on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
}

func readEnv(dir string) *runEnv {
	e := &runEnv{fsType: "unknown", cpuModel: "unknown"}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		if name, ok := fsMagic[int64(st.Type)]; ok {
			e.fsType = name
		} else {
			e.fsType = fmt.Sprintf("0x%x", st.Type)
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.cpuModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	e.steal, e.tot0 = cpuSteal()
	return e
}

// stealShare is the share of CPU time the hypervisor stole since
// readEnv, from /proc/stat (0 when unavailable).
func (e *runEnv) stealShare() float64 {
	steal, tot := cpuSteal()
	if tot <= e.tot0 {
		return 0
	}
	return float64(steal-e.steal) / float64(tot-e.tot0)
}

// cpuSteal returns the aggregate steal and total jiffies.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
