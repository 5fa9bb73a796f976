/* pc_sampler — a statistical program-counter sampler to LD_PRELOAD.
 *
 * Samples the program counter of the process it is loaded into, on the
 * process's own CPU-time clock: setitimer(ITIMER_PROF) raises SIGPROF after
 * each interval of CPU time this process spends (user + system), and the
 * handler appends the interrupted PC to a preallocated buffer. At exit the
 * samples go to `pc_sampler.<pid>.out` in the working directory, preceded
 * by the executable mappings of /proc/self/maps, which
 * tools/pc_sampler_report.py needs to undo address-space randomisation.
 * It touches nothing outside its own process.
 *
 * Build and run (an optimised build with -g gives per-line attribution):
 *
 *     gcc -O2 -shared -fPIC -o pc_sampler.so tools/pc_sampler.c
 *     LD_PRELOAD=$PWD/pc_sampler.so ./prog args...
 *     python3 tools/pc_sampler_report.py pc_sampler.<pid>.out [--lines]
 *
 * Preload the measured program itself, not a wrapper script: every process
 * that loads the library (a shell, python, a compiler) writes its own file.
 *
 * Resolution. The requested interval is 1 ms, but the kernel charges CPU
 * time and checks process timers on its scheduler tick, so SIGPROF arrives
 * at most once per tick: about every 4 ms on a CONFIG_HZ=250 kernel, i.e.
 * ~250 samples per CPU-second. A 30 s run gives ~7,500 samples, enough for
 * shares of 1% and up; smaller shares need longer runs.
 *
 * Samples beyond the buffer (2^21, over two hours at 250 Hz) are counted
 * as dropped in the header line, not recorded.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxSamples = 1 << 21, kIntervalUs = 1000 };

static uintptr_t samples[kMaxSamples];
static unsigned long taken;   /* handler-only writer; read after disarm */
static unsigned long dropped;

static uintptr_t interrupted_pc(const ucontext_t* uc) {
#if defined(__x86_64__)
  return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pc_sampler: unsupported architecture"
#endif
}

static void on_prof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const unsigned long slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  if (slot < kMaxSamples) {
    samples[slot] = interrupted_pc((const ucontext_t*)context);
  } else {
    __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
  }
}

static void set_timer(long interval_us) {
  struct itimerval timer;
  memset(&timer, 0, sizeof timer);
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((constructor)) static void pc_sampler_start(void) {
  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_sigaction = on_prof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, NULL) != 0) return;
  set_timer(kIntervalUs);
}

__attribute__((destructor)) static void pc_sampler_stop(void) {
  set_timer(0);
  char path[64];
  snprintf(path, sizeof path, "pc_sampler.%ld.out", (long)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    perror("pc_sampler: cannot write samples");
    return;
  }
  unsigned long n = __atomic_load_n(&taken, __ATOMIC_RELAXED);
  if (n > kMaxSamples) n = kMaxSamples;
  fprintf(out, "# pc_sampler interval_us=%d samples=%lu dropped=%lu\n",
          kIntervalUs, n, __atomic_load_n(&dropped, __ATOMIC_RELAXED));
  /* Executable mappings: "map <start> <end> <file offset> <path>". */
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) {
      unsigned long start, end, offset;
      char perms[5];
      int path_at = 0;
      if (sscanf(line, "%lx-%lx %4s %lx %*s %*s %n", &start, &end, perms,
                 &offset, &path_at) < 4) {
        continue;
      }
      if (perms[2] != 'x' || path_at == 0 || line[path_at] != '/') continue;
      line[strcspn(line, "\n")] = '\0';
      fprintf(out, "map %lx %lx %lx %s\n", start, end, offset, line + path_at);
    }
    fclose(maps);
  }
  for (unsigned long i = 0; i < n; ++i) fprintf(out, "%lx\n", samples[i]);
  if (fclose(out) != 0) perror("pc_sampler: cannot write samples");
}
