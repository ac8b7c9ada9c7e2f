// entk-serve: the multi-tenant ensemble service daemon.
//
//   entk-serve [--socket path.sock] [--port N] [--machine name]
//              [--queue-capacity N] [--max-active N] [--quantum N]
//              [--tenant name=weight[:max_sessions[:max_inflight]]]...
//
// Binds a Unix-domain socket and/or a loopback TCP port (default:
// ./entk-serve.sock when neither is given; --port 0 picks an
// ephemeral port) and serves the newline-delimited JSON protocol
// (docs/SERVICE.md). Workloads from N tenants run as concurrent
// sessions over one shared simulated machine with admission control,
// per-tenant quotas and weighted fair-share dispatch.
//
// SIGINT/SIGTERM (or a SHUTDOWN request) stop the service cleanly:
// queued workloads are cancelled, running ones aborted and settled,
// then the final STATS document is printed to stdout. Exit codes:
// 0 clean shutdown, 1 usage error, 2 startup failure.
#include <atomic>
#include <csignal>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/listener.hpp"
#include "serve/service.hpp"

namespace {

void print_usage() {
  std::cerr
      << "usage: entk-serve [options]\n"
         "options:\n"
         "  --socket <path>        bind a unix-domain socket\n"
         "  --port <n>             bind loopback TCP port n (0 = pick)\n"
         "  --machine <name>       simulated machine (default localhost)\n"
         "  --queue-capacity <n>   admission queue bound (default 256)\n"
         "  --max-active <n>       max concurrent sessions (default 4)\n"
         "  --quantum <n>          fair-share quantum in frontier nodes\n"
         "                         (default 8)\n"
         "  --tenant <spec>        name=weight[:max_sessions[:max_inflight]]\n"
         "                         (repeatable)\n"
         "  --help                 this text\n";
}

std::atomic<bool> g_stop_requested{false};

extern "C" void handle_stop_signal(int) {
  g_stop_requested.store(true, std::memory_order_relaxed);
}

bool parse_size(const std::string& text, std::size_t& out) {
  try {
    std::size_t end = 0;
    const unsigned long long value = std::stoull(text, &end);
    if (end != text.size()) return false;
    out = static_cast<std::size_t>(value);
    return true;
  } catch (...) {
    return false;
  }
}

/// name=weight[:max_sessions[:max_inflight]]
bool parse_tenant_spec(const std::string& spec, std::string& name,
                       entk::serve::TenantConfig& config) {
  const std::size_t equals = spec.find('=');
  if (equals == std::string::npos || equals == 0) return false;
  name = spec.substr(0, equals);
  std::vector<std::string> parts;
  std::size_t start = equals + 1;
  while (start <= spec.size()) {
    const std::size_t colon = spec.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(spec.substr(start));
      break;
    }
    parts.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }
  if (parts.empty() || parts.size() > 3) return false;
  try {
    std::size_t end = 0;
    config.weight = std::stod(parts[0], &end);
    if (end != parts[0].size()) return false;
  } catch (...) {
    return false;
  }
  if (parts.size() > 1 && !parse_size(parts[1], config.max_sessions)) {
    return false;
  }
  if (parts.size() > 2 &&
      !parse_size(parts[2], config.max_inflight_units)) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  entk::serve::ServiceConfig config;
  entk::serve::Listener::Options listen;
  std::vector<std::pair<std::string, entk::serve::TenantConfig>> tenants;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "entk-serve: " << flag << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--socket") {
      listen.unix_path = next("--socket");
    } else if (arg == "--port") {
      std::size_t port = 0;
      if (!parse_size(next("--port"), port) || port > 65535) {
        std::cerr << "entk-serve: bad --port\n";
        return 1;
      }
      listen.tcp_port = static_cast<int>(port);
    } else if (arg == "--machine") {
      config.machine = next("--machine");
    } else if (arg == "--queue-capacity") {
      if (!parse_size(next("--queue-capacity"), config.queue_capacity)) {
        std::cerr << "entk-serve: bad --queue-capacity\n";
        return 1;
      }
    } else if (arg == "--max-active") {
      if (!parse_size(next("--max-active"), config.max_active_sessions)) {
        std::cerr << "entk-serve: bad --max-active\n";
        return 1;
      }
    } else if (arg == "--quantum") {
      if (!parse_size(next("--quantum"), config.drr_quantum)) {
        std::cerr << "entk-serve: bad --quantum\n";
        return 1;
      }
    } else if (arg == "--tenant") {
      std::string name;
      entk::serve::TenantConfig tenant;
      if (!parse_tenant_spec(next("--tenant"), name, tenant)) {
        std::cerr << "entk-serve: bad --tenant (want "
                     "name=weight[:max_sessions[:max_inflight]])\n";
        return 1;
      }
      tenants.emplace_back(std::move(name), tenant);
    } else {
      std::cerr << "entk-serve: unknown option " << arg << "\n";
      print_usage();
      return 1;
    }
  }
  if (listen.unix_path.empty() && listen.tcp_port < 0) {
    listen.unix_path = "entk-serve.sock";
  }

  auto service = entk::serve::Service::create(config);
  if (!service.ok()) {
    std::cerr << "entk-serve: " << service.status().to_string() << "\n";
    return 2;
  }
  entk::serve::Service& daemon = *service.value();
  for (const auto& [name, tenant] : tenants) {
    const entk::Status configured = daemon.configure_tenant(name, tenant);
    if (!configured.is_ok()) {
      std::cerr << "entk-serve: --tenant " << name << ": "
                << configured.to_string() << "\n";
      return 1;
    }
  }

  auto listener = entk::serve::Listener::start(daemon, listen);
  if (!listener.ok()) {
    std::cerr << "entk-serve: " << listener.status().to_string() << "\n";
    return 2;
  }
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  std::cout << "entk-serve: machine " << daemon.machine_name() << " ("
            << daemon.machine_cores() << " cores)";
  if (!listener.value()->unix_path().empty()) {
    std::cout << ", socket " << listener.value()->unix_path();
  }
  if (listener.value()->tcp_port() >= 0) {
    std::cout << ", port " << listener.value()->tcp_port();
  }
  std::cout << std::endl;  // flush: scripts wait for this line

  // The drive loop owns this thread; a watcher maps process signals
  // onto the service's own shutdown path.
  std::thread watcher([&daemon] {
    while (!daemon.shutting_down()) {
      if (g_stop_requested.load(std::memory_order_relaxed)) {
        daemon.shutdown();
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  daemon.run();
  watcher.join();
  listener.value()->stop();

  std::cout << daemon.handle_line("{\"verb\":\"STATS\"}") << std::endl;
  return 0;
}
