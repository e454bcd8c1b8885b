package substrate

// Category classifies how a processor spends its time. The categories are
// exactly the stacked-bar series of Figures 3-6 of the paper, plus a
// catch-all for time that precedes the measured region.
type Category int

const (
	// CatCompute is useful application computation ("Computation Time").
	CatCompute Category = iota
	// CatIdle is time spent with no local work, waiting for messages or for
	// the end of the run ("Idle Time").
	CatIdle
	// CatMessaging is CPU time spent sending and receiving messages
	// ("Messaging Time").
	CatMessaging
	// CatScheduling is time spent in the runtime scheduler selecting the next
	// work unit and evaluating load levels ("Scheduling Time").
	CatScheduling
	// CatCallback is handler-dispatch overhead around application callbacks
	// ("Callback Routine Time").
	CatCallback
	// CatPollThread is time consumed by PREMA's preemptive polling thread in
	// implicit load balancing mode ("Polling Thread Time").
	CatPollThread
	// CatPartition is time spent computing a new partition in
	// stop-and-repartition schemes ("Partition Calculation Time").
	CatPartition
	// CatSync is time spent blocked in barriers or other global
	// synchronization introduced for load balancing ("Synchronization Time").
	CatSync

	// NumCategories is the number of accounting categories.
	NumCategories
)

var categoryNames = [NumCategories]string{
	"Computation",
	"Idle",
	"Messaging",
	"Scheduling",
	"Callback",
	"PollThread",
	"Partition",
	"Sync",
}

// String returns the short human-readable category name.
func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return "Unknown"
	}
	return categoryNames[c]
}

// Account is a per-processor ledger of time by category.
type Account [NumCategories]Time

// Total returns the sum across all categories.
func (a *Account) Total() Time {
	var t Time
	for _, v := range a {
		t += v
	}
	return t
}

// Overhead returns the sum of all runtime-attributable categories, i.e.
// everything except computation and idle time. This is the quantity the
// paper reports as "overhead attributable to the runtime system".
func (a *Account) Overhead() Time {
	return a.Total() - a[CatCompute] - a[CatIdle]
}
