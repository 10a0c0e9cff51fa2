// fsync and fdatasync as tmpfs implements them: they return at once.
//
// The mutate workload keeps its delta log on tmpfs so that disk flush
// latency, which varies run to run on a shared VM disk, does not drown
// the log's and the solver's own cost. The benchmark may write only
// inside its checkout, so instead of mounting tmpfs it gives pcx_serve
// this library through LD_PRELOAD (and links it into e2e_bench for the
// in-process log replay): the log files are written exactly as before,
// and only the flush is free, as on tmpfs.

#include <unistd.h>

extern "C" int fsync(int /*fd*/) { return 0; }
extern "C" int fdatasync(int /*fd*/) { return 0; }
