package collector

// SetMarkCheck makes every collection of c pass VerifyMark's verdict to f
// between its mark and its sweep. It is exported to the package's external
// tests only.
func SetMarkCheck(c *Collector, f func(error)) { c.checkMark = f }

// SetProbeWindow sets the length of c's regime probe window; 0 makes every
// collection interleave its lanes from the first scan.
func SetProbeWindow(c *Collector, scans int) { c.window = scans }

// Lane returns the index of the lane being scanned, or -1 outside the mark.
func (c *Collector) Lane() int {
	for i := range c.lanes {
		if &c.lanes[i] == c.lane {
			return i
		}
	}
	return -1
}

// NumLanes is the marker's lane count; NearBytes the distance within which
// the regime probe counts a scan near the ones before it.
const (
	NumLanes  = numLanes
	NearBytes = nearBytes
)
