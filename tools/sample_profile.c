// A CPU-time sampler loaded with LD_PRELOAD by tools/sample_profile.sh.
//
// The constructor arms setitimer(ITIMER_PROF), which sends the process a
// SIGPROF for every millisecond of CPU time it uses, on whichever thread is
// running; the handler stores the interrupted program counter, and the word
// at the interrupted stack pointer, in a fixed buffer. That word is the
// return address when the sample lands in a leaf function that has not
// pushed anything yet (a libc memcpy or memset), which lets the script name
// the caller of library time. The destructor disarms the timer and writes,
// beside this shared object, `samples.<pid>`: the executable's path, every
// executable mapping of the process, and one line per sample. Only the
// process itself (and any program it execs, which loads the sampler again)
// is sampled; nothing outside it is read or set. x86-64 Linux only: the
// handler reads RIP and RSP.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define SAMPLE_CAPACITY (1u << 20)

struct sample {
  uintptr_t pc;
  uintptr_t stack_top;  // the word at the interrupted stack pointer
};

static struct sample samples[SAMPLE_CAPACITY];
static unsigned long sample_count;  // may exceed the capacity: drops
static pid_t sampled_pid;  // a forked child holds a copy of the samples

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
  const unsigned long i =
      __atomic_fetch_add(&sample_count, 1, __ATOMIC_RELAXED);
  if (i < SAMPLE_CAPACITY) {
    samples[i].pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    samples[i].stack_top = *(const uintptr_t*)uc->uc_mcontext.gregs[REG_RSP];
  }
}

static void set_timer(long usec) {
  struct itimerval t;
  memset(&t, 0, sizeof t);
  t.it_interval.tv_usec = usec;
  t.it_value.tv_usec = usec;
  setitimer(ITIMER_PROF, &t, NULL);
}

__attribute__((constructor)) static void sampler_start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sampled_pid = getpid();
  if (sigaction(SIGPROF, &sa, NULL) == 0) set_timer(1000);
}

__attribute__((destructor)) static void sampler_stop(void) {
  set_timer(0);
  if (getpid() != sampled_pid) return;
  Dl_info self;
  if (!dladdr((void*)&sampler_start, &self) || !self.dli_fname) return;
  char path[4096];
  const char* slash = strrchr(self.dli_fname, '/');
  const int dir_len = slash ? (int)(slash - self.dli_fname) : 1;
  snprintf(path, sizeof path, "%.*s/samples.%ld", dir_len,
           slash ? self.dli_fname : ".", (long)getpid());
  FILE* out = fopen(path, "w");
  if (!out) return;
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[n > 0 ? n : 0] = '\0';
  fprintf(out, "exe %s\n", exe);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps) {
    char line[4096];
    while (fgets(line, sizeof line, maps)) {
      unsigned long start, end, offset;
      char perms[5];
      int name_at = 0;
      if (sscanf(line, "%lx-%lx %4s %lx %*s %*s %n", &start, &end, perms,
                 &offset, &name_at) < 4 ||
          perms[2] != 'x') {
        continue;
      }
      line[strcspn(line, "\n")] = '\0';
      fprintf(out, "map %lx %lx %lx %s\n", start, end, offset,
              name_at > 0 ? line + name_at : "");
    }
    fclose(maps);
  }
  const unsigned long taken =
      __atomic_load_n(&sample_count, __ATOMIC_RELAXED);
  const unsigned long kept =
      taken < SAMPLE_CAPACITY ? taken : SAMPLE_CAPACITY;
  fprintf(out, "dropped %lu\n", taken - kept);
  for (unsigned long i = 0; i < kept; ++i) {
    fprintf(out, "pc %lx %lx\n", (unsigned long)samples[i].pc,
            (unsigned long)samples[i].stack_top);
  }
  fclose(out);
}
