// Runs the built mcsort_server as a child process on a loopback ephemeral
// port, with a fully specified environment, and stops it again.
#ifndef PERFBENCH_SERVER_PROCESS_H_
#define PERFBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct ServerLaunch {
  std::string binary;    // path to mcsort_server
  std::string work_dir;  // the child's working directory
  std::string log_path;  // stdout + stderr of the child
  // MCSORT_* variables passed to the child. Every other MCSORT_* variable
  // of the benchmark's own environment is removed, so the host cannot
  // change the server's configuration behind the benchmark's back.
  std::vector<std::pair<std::string, std::string>> env;
};

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns the server and waits (up to `timeout_s`) until it prints its
  // listening line. False with *error set when it exits or times out.
  bool Start(const ServerLaunch& launch, double timeout_s, std::string* error);
  uint16_t port() const { return port_; }
  // The pool size the server reported on its listening line.
  int pool_threads() const { return pool_threads_; }

  // Peak resident set (VmHWM) of the running server, in MiB; 0 if unknown.
  double PeakRssMib() const;

  // CPU time (user + system, all threads) the running server has used so
  // far, in seconds; 0 if unknown. Time the hypervisor stole from the
  // host is not in it.
  double CpuSeconds() const;

  // SIGTERM (graceful drain), then SIGKILL after `timeout_s`; always reaps
  // the child. True when the server exited 0 on its own.
  bool Stop(double timeout_s = 15);

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  int pool_threads_ = 0;
};

// Total size of the regular files under `dir`, in bytes.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROCESS_H_
