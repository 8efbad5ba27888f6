#include "util/affinity.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace emwd::util {

#if defined(__linux__)

bool pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  bool any = false;
  for (int c : cpus) {
    if (c >= 0 && c < CPU_SETSIZE) {
      CPU_SET(c, &set);
      any = true;
    }
  }
  if (!any) return false;
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

namespace {

ThreadAffinity affinity_of(const cpu_set_t& set) {
  ThreadAffinity saved;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) saved.cpus.push_back(c);
  }
  saved.valid = !saved.cpus.empty();
  return saved;
}

}  // namespace

ThreadAffinity get_thread_affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0) return {};
  return affinity_of(set);
}

ThreadAffinity get_process_affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(getpid(), sizeof(set), &set) != 0) return {};
  return affinity_of(set);
}

void restore_thread_affinity(const ThreadAffinity& saved) {
  if (saved.valid) pin_current_thread(saved.cpus);
}

#else  // !__linux__

bool pin_current_thread(const std::vector<int>&) { return false; }
ThreadAffinity get_thread_affinity() { return {}; }
ThreadAffinity get_process_affinity() { return {}; }
void restore_thread_affinity(const ThreadAffinity&) {}

#endif

}  // namespace emwd::util
