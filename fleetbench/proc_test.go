package main

import "testing"

// peakRSSKiB reads VmHWM lines like this process's own.
func TestReadHWMOfThisProcess(t *testing.T) {
	kib, ok := readHWM("/proc/self/status")
	if !ok || kib <= 0 {
		t.Fatalf("readHWM(/proc/self/status) = %d, %v; want a positive size", kib, ok)
	}
	if _, ok := readHWM("/proc/self/no-such-file"); ok {
		t.Fatal("readHWM of a missing file reported a size")
	}
}
