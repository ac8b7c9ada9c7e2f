#include "serve/protocol.hpp"

#include <cmath>

namespace entk::serve {

namespace {

Status bad_request(const std::string& what) {
  return make_error(Errc::kInvalidArgument, what);
}

/// Pulls a required/optional string member out of the request object.
Result<std::string> read_string(const Json& object, std::string_view key,
                                bool required) {
  const Json* member = object.find(key);
  if (member == nullptr || member->is_null()) {
    if (required) {
      return bad_request("missing required member \"" + std::string(key) +
                         "\"");
    }
    return std::string();
  }
  if (!member->is_string()) {
    return bad_request("member \"" + std::string(key) +
                       "\" must be a string");
  }
  return member->as_string();
}

Result<std::uint64_t> read_id(const Json& object) {
  const Json* member = object.find("id");
  if (member == nullptr) return bad_request("missing required member \"id\"");
  if (!member->is_number()) return bad_request("member \"id\" must be a number");
  const double value = member->as_number();
  if (value < 1.0 || value != std::floor(value) || value > 1e15) {
    return bad_request("member \"id\" must be a positive integer");
  }
  return static_cast<std::uint64_t>(value);
}

}  // namespace

Result<Request> parse_request(std::string_view line) {
  if (line.size() > kMaxLineBytes) {
    return bad_request("request line exceeds " +
                       std::to_string(kMaxLineBytes) + " bytes");
  }
  auto parsed = Json::parse(line, kRequestMaxDepth);
  if (!parsed.ok()) return parsed.status();
  const Json document = parsed.take();
  if (!document.is_object()) {
    return bad_request("request must be a JSON object");
  }
  auto verb_text = read_string(document, "verb", /*required=*/true);
  if (!verb_text.ok()) return verb_text.status();

  Request request;
  const std::string& verb = verb_text.value();
  if (verb == "SUBMIT") {
    request.verb = Verb::kSubmit;
    auto tenant = read_string(document, "tenant", /*required=*/true);
    if (!tenant.ok()) return tenant.status();
    auto workload = read_string(document, "workload", /*required=*/true);
    if (!workload.ok()) return workload.status();
    auto name = read_string(document, "name", /*required=*/false);
    if (!name.ok()) return name.status();
    request.tenant = tenant.take();
    request.workload = workload.take();
    request.name = name.take();
    if (request.tenant.empty()) {
      return bad_request("member \"tenant\" must be non-empty");
    }
    if (request.workload.empty()) {
      return bad_request("member \"workload\" must be non-empty");
    }
    return request;
  }
  if (verb == "STATUS" || verb == "CANCEL" || verb == "RESULTS") {
    request.verb = verb == "STATUS"   ? Verb::kStatus
                   : verb == "CANCEL" ? Verb::kCancel
                                      : Verb::kResults;
    auto id = read_id(document);
    if (!id.ok()) return id.status();
    request.id = id.value();
    return request;
  }
  if (verb == "STATS") {
    request.verb = Verb::kStats;
    return request;
  }
  if (verb == "SHUTDOWN") {
    request.verb = Verb::kShutdown;
    return request;
  }
  return bad_request("unknown verb \"" + verb + "\"");
}

std::string error_reply(std::string_view code, std::string_view reason) {
  Json reply = Json::object();
  reply.set("ok", Json::boolean(false));
  reply.set("error", Json::string(std::string(code)));
  reply.set("reason", Json::string(std::string(reason)));
  return reply.dump();
}

const char* error_code_for(const Status& status) {
  switch (status.code()) {
    case Errc::kInvalidArgument: return "BAD_REQUEST";
    case Errc::kResourceExhausted: return "REJECTED";
    case Errc::kFailedPrecondition: return "QUOTA";
    case Errc::kNotFound: return "NOT_FOUND";
    case Errc::kCancelled: return "UNAVAILABLE";
    default: return "INTERNAL";
  }
}

std::string ok_reply(Json body) {
  Json reply = Json::object();
  reply.set("ok", Json::boolean(true));
  for (const auto& [key, value] : body.members()) {
    reply.set(key, value);
  }
  return reply.dump();
}

}  // namespace entk::serve
