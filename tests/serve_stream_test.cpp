//===- serve_stream_test.cpp - `earthcc --serve` over a real pipe ----------===//
//
// Part of the earthcc project.
//
// The CLI speaks the serve protocol on unsynced, untied standard streams
// (see examples/earthcc_main.cpp). These tests drive the real binary
// through a pipe and pin the two things that choice could break:
//
//  - Line framing: a stream with a request line longer than 200 KiB (past
//    both the stream buffer and a 64 KiB pipe buffer), CRLF line ends,
//    blank lines and a final "shutdown" without a trailing newline gets
//    the same responses from the binary as from the in-process loop over
//    an istringstream.
//  - Response-line integrity: under a pipelined burst on four workers,
//    every stdout line is exactly one JSON object and the response ids are
//    exactly the request ids.
//  - Survival: requests the server must refuse (nesting past the parser's
//    limit, a malformed struct body, retired option fields) get an error
//    response, and the requests after them are still answered.
//
//===----------------------------------------------------------------------===//

#include "service/Serve.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace earthcc;

namespace {

const char *Program = R"(int sum(int n) {
  int i; int s;
  s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + i; print(s); }
  return s;
}
int main(int n) { return sum(n); }
)";

/// A run request line for \p Source (already a valid program) with entry
/// argument \p Arg, no line terminator.
std::string runLine(int Id, const std::string &Source, int Arg,
                    const std::string &Extra = "") {
  return "{\"id\":" + std::to_string(Id) + ",\"op\":\"run\",\"source\":" +
         json::quote(Source) + ",\"args\":[" + std::to_string(Arg) + "]" +
         Extra + "}";
}

/// Runs `earthcc --serve <Flags>` with \p Input written into its stdin
/// through a pipe, and returns everything it wrote to stdout.
std::string runCli(const std::string &Flags, const std::string &Input) {
  std::signal(SIGPIPE, SIG_IGN); // a dead child fails the test, not the run
  std::filesystem::path OutPath =
      std::filesystem::temp_directory_path() /
      ("earthcc_serve_stream_" + std::to_string(getpid()) + ".jsonl");
  std::string Cmd = std::string("'") + EARTHCC_CLI + "' --serve " + Flags +
                    " > '" + OutPath.string() + "'";
  FILE *Child = popen(Cmd.c_str(), "w");
  EXPECT_NE(Child, nullptr) << Cmd;
  if (!Child)
    return "";
  size_t Written = fwrite(Input.data(), 1, Input.size(), Child);
  EXPECT_EQ(Written, Input.size());
  EXPECT_EQ(pclose(Child), 0) << Cmd;
  std::ifstream In(OutPath);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::filesystem::remove(OutPath);
  return Buf.str();
}

/// Splits \p Out into lines; each must parse as exactly one JSON object.
std::vector<json::Value> parseLines(const std::string &Out) {
  std::vector<json::Value> Lines;
  std::istringstream In(Out);
  std::string Line;
  while (std::getline(In, Line)) {
    json::Value V;
    std::string Err;
    EXPECT_TRUE(json::parse(Line, V, Err))
        << Err << "\nline: " << Line.substr(0, 200);
    EXPECT_TRUE(V.isObject()) << Line.substr(0, 200);
    Lines.push_back(std::move(V));
  }
  return Lines;
}

/// Responses by their numeric "id" (each id must occur once).
std::map<int, json::Value> byId(const std::vector<json::Value> &Lines) {
  std::map<int, json::Value> M;
  for (const json::Value &V : Lines) {
    const json::Value *Id = V.find("id");
    EXPECT_TRUE(Id && Id->isNumber()) << V.str().substr(0, 200);
    if (!Id || !Id->isNumber())
      continue;
    EXPECT_TRUE(M.emplace(static_cast<int>(Id->asNumber()), V).second)
        << "duplicate id " << Id->str();
  }
  return M;
}

/// The serve options the CLI builds with no flags: request defaults with
/// the environment applied.
ServeOptions cliDefaults() {
  ServeOptions Opts;
  std::string Err;
  EXPECT_TRUE(applyRequestEnv(Opts.BaseCompile, Opts.BaseRun, Err)) << Err;
  Opts.Service.Workers = 2;
  return Opts;
}

} // namespace

TEST(ServeStreamTest, CliFramingMatchesInProcessLoop) {
  // The padding is a comment, so every padded request is the same program
  // with a different (> 200 KiB) key.
  std::string Padded = std::string(Program) + "/*" +
                       std::string(210 * 1024, 'x') + "*/\n";
  std::string Stream;
  Stream += runLine(1, Padded, 4) + "\r\n";
  Stream += "\r\n";
  Stream += "\n";
  Stream += " \t \r\n";
  Stream += runLine(2, Program, 6, ",\"nodes\":2") + "\r\n";
  Stream += "{\"id\":3,\"op\":\"run\",\"workload\":\"power\",\"nodes\":2}\r\n";
  Stream += runLine(4, Padded, 4) + "\r\n"; // a cache hit on request 1
  Stream += "{\"id\":5,\"op\":\"compile\",\"source\":\"int main() { "
            "return oops; }\"}\r\n";
  Stream += "\r\n";
  Stream += "{\"id\":6,\"op\":\"shutdown\"}"; // no trailing newline
  ASSERT_GT(Stream.size(), 400u * 1024);

  std::map<int, json::Value> Cli = byId(parseLines(runCli("", Stream)));

  std::istringstream In(Stream);
  std::ostringstream Out;
  runServeLoop(In, Out, cliDefaults());
  std::map<int, json::Value> Ref = byId(parseLines(Out.str()));

  ASSERT_EQ(Ref.size(), 6u);
  ASSERT_EQ(Cli.size(), Ref.size());
  for (const auto &[Id, R] : Ref) {
    auto It = Cli.find(Id);
    ASSERT_NE(It, Cli.end()) << "no CLI response for id " << Id;
    for (const char *Field : {"id", "ok", "key", "exit", "time_ns", "output"}) {
      const json::Value *A = It->second.find(Field);
      const json::Value *B = R.find(Field);
      ASSERT_EQ(A != nullptr, B != nullptr) << "id " << Id << " " << Field;
      if (A) {
        EXPECT_EQ(A->str(), B->str()) << "id " << Id << " " << Field;
      }
    }
  }

  // The padded line arrived whole: it ran and printed, and its twin was
  // served from the cache (or joined it in flight; either may run first).
  EXPECT_TRUE(Cli[1].getBool("ok", false));
  EXPECT_EQ(Cli[1].find("output")->str(), "[\"0\",\"1\",\"3\",\"6\"]");
  EXPECT_NE(Cli[1].getBool("cache_hit", false),
            Cli[4].getBool("cache_hit", false));
  EXPECT_FALSE(Cli[5].getBool("ok", true));
  EXPECT_EQ(Cli[6].getString("op", ""), "shutdown");
}

TEST(ServeStreamTest, PipelinedBurstKeepsResponseLinesWhole) {
  // Hits on a small hot set, salted sources that miss, and profile
  // requests with long response lines, all outstanding at once.
  const int Requests = 96;
  std::string Stream;
  std::set<int> Sent;
  for (int Id = 1; Id <= Requests; ++Id) {
    std::string Source = Program;
    if (Id % 4 == 0)
      Source += "// salt " + std::to_string(Id) + "\n";
    std::string Extra = Id % 3 == 0 ? ",\"profile\":true,\"nodes\":4" : "";
    Stream += runLine(Id, Source, 2 + Id % 5, Extra) + "\n";
    Sent.insert(Id);
  }
  Stream += "{\"id\":1000,\"op\":\"shutdown\"}\n";
  Sent.insert(1000);

  std::vector<json::Value> Lines =
      parseLines(runCli("--workers 4", Stream));
  EXPECT_EQ(Lines.size(), Sent.size());
  std::map<int, json::Value> Got = byId(Lines);
  std::set<int> Ids;
  for (const auto &[Id, R] : Got) {
    Ids.insert(Id);
    EXPECT_TRUE(R.getBool("ok", false)) << R.str().substr(0, 200);
  }
  EXPECT_EQ(Ids, Sent);
  // The burst really mixed hits and misses.
  int Hits = 0;
  for (const auto &[Id, R] : Got)
    Hits += R.getBool("cache_hit", false);
  EXPECT_GT(Hits, 0);
  EXPECT_LT(Hits, Requests);
}

TEST(ServeStreamTest, RefusedRequestsLeaveTheServerRunning) {
  const std::string Deep = "int main() { int x; x = " +
                           std::string(20000, '(') + "1" +
                           std::string(20000, ')') + "; return x; }";
  std::string Stream;
  Stream += runLine(1, Deep, 0) + "\n";
  Stream += runLine(2, Program, 3) + "\n";
  Stream += runLine(3, Program, 3, ",\"fuse\":\"off\"") + "\n";
  Stream += runLine(4, Program, 3, ",\"lower-threads\":4") + "\n";
  Stream += runLine(5, Program, 3, ",\"pass-threads\":4") + "\n";
  Stream += runLine(6, Program, 4) + "\n";
  Stream += "{\"id\":7,\"op\":\"shutdown\"}\n";

  std::map<int, json::Value> Got = byId(parseLines(runCli("", Stream)));
  ASSERT_EQ(Got.size(), 7u);
  EXPECT_FALSE(Got[1].getBool("ok", true));
  EXPECT_NE(Got[1].str().find("nesting too deep"), std::string::npos)
      << Got[1].str().substr(0, 300);
  for (int Id : {3, 4, 5}) {
    EXPECT_FALSE(Got[Id].getBool("ok", true)) << Id;
    EXPECT_NE(Got[Id].str().find("unknown option"), std::string::npos)
        << Got[Id].str();
  }
  EXPECT_TRUE(Got[2].getBool("ok", false)) << Got[2].str();
  EXPECT_EQ(Got[2].find("exit")->str(), "3");
  EXPECT_TRUE(Got[6].getBool("ok", false)) << Got[6].str();
  EXPECT_EQ(Got[6].find("exit")->str(), "6");
  EXPECT_EQ(Got[7].getString("op", ""), "shutdown");
}

TEST(ServeStreamTest, MalformedStructBodyIsAnsweredThenTheNextRequest) {
  // A struct body whose field lacks a type once spun the parser forever
  // while its memory grew; the worker must answer it with a located
  // diagnostic and the server must go on to the next request.
  std::string Stream;
  Stream += runLine(1, "struct B {\n {double r;\n};", 0) + "\n";
  Stream += runLine(2, Program, 3) + "\n";
  Stream += "{\"id\":3,\"op\":\"shutdown\"}\n";

  std::map<int, json::Value> Got =
      byId(parseLines(runCli("--workers 2", Stream)));
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_FALSE(Got[1].getBool("ok", true));
  EXPECT_NE(Got[1].str().find("2:2: error: unexpected token in struct 'B'"),
            std::string::npos)
      << Got[1].str().substr(0, 300);
  EXPECT_TRUE(Got[2].getBool("ok", false)) << Got[2].str();
  EXPECT_EQ(Got[2].find("exit")->str(), "3");
  EXPECT_EQ(Got[3].getString("op", ""), "shutdown");
}
