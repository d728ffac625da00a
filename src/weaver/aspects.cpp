#include "weaver/aspects.hpp"

#include "support/strings.hpp"

namespace socrates::weaver {

namespace {

const char* const kMultiversioningLara = R"LARA(
// Multiversioning.lara
// Generates one clone of each kernel per (compiler-config, binding)
// pair, rewrites the OpenMP pragmas of every clone, emits the dispatch
// wrapper and retargets the original call sites (Figure 2b).
import socrates.ConfigSpace;
import socrates.Naming;

aspectdef Multiversioning
  input configs, bindings end
  output kernels end

  kernels = [];

  select function end
  apply
    if (!$function.name.startsWith("kernel_"))
      continue;

    var kernel = { name: $function.name, versions: [] };
    kernel.wrapper = $function.name + "_wrapper";
    kernel.versionVar = "__margot_version_" + kernel.name;
    kernel.threadsVar = "__margot_num_threads_" + kernel.name;

    // Per-kernel control variables: each phase tunes independently.
    exec addGlobal("int", kernel.versionVar, "0");
    exec addGlobal("int", kernel.threadsVar, "1");

    // Inspect the kernel before cloning: full signature, loop
    // structure and OpenMP pragma information.
    var rtype = $function.returnType;
    var params = [];
    for (var i = 0; i < $function.paramCount; i++) {
      var $p = $function.param(i);
      params.push({ type: $p.type, name: $p.name });
    }
    select $function.loop end
    apply
      var depth = $loop.nestDepth;
    end
    select $function.pragma end
    apply
      if ($pragma.isOpenMP) {
        var directive = $pragma.directive;
        var clauses = $pragma.clauses;
      }
    end

    var versionId = 0;
    for (var cfg of configs) {
      for (var bind of bindings) {
        var cloneName = kernel.name + "_" + Naming.suffix(cfg.name, bind);

        exec cloneFunction($function, cloneName);
        var $clone = AST.function(cloneName);

        // Compiler options for this clone.
        insert before $clone %{#pragma GCC push_options}%;
        insert before $clone %{#pragma GCC optimize("[[cfg.options]]")}%;
        insert after  $clone %{#pragma GCC pop_options}%;

        // Parallelization knobs of every OpenMP pragma in the clone.
        select $clone.pragma end
        apply
          if (!$pragma.isOpenMP)
            continue;
          var info = $pragma.ompInfo;
          info.setClause("num_threads", kernel.threadsVar);
          info.setClause("proc_bind", bind);
          exec setPragma($pragma, info.render());
        end

        kernel.versions.push({ id: versionId, fn: cloneName,
                               config: cfg.name, binding: bind });
        versionId++;
      }
    }

    // Dispatch wrapper: switches on the version control variable.
    var wrapperCode = Naming.signature(rtype, kernel.wrapper, params) + "{\n";
    for (var v of kernel.versions) {
      wrapperCode += "  " + (v.id == 0 ? "if" : "else if");
      wrapperCode += " (" + kernel.versionVar + " == " + v.id + ")\n";
      wrapperCode += "    " + v.fn + "(" + Naming.args(params) + ");\n";
    }
    wrapperCode += "  else\n    " + kernel.name + "(" + Naming.args(params) + ");\n}";
    exec addFunction(wrapperCode);

    // Retarget every original call site to the wrapper.
    select function{name != kernel.wrapper}.call end
    apply
      if ($call.name == kernel.name && !$function.name.startsWith(kernel.name))
        exec setCallee($call, kernel.wrapper);
    end

    kernels.push(kernel);
  end
end
)LARA";

const char* const kAutotunerLara = R"LARA(
// Autotuner.lara
// Integrates the mARGOt autotuner: header include, initialization in
// main, and update/start/stop calls around every wrapper call site
// (Figure 2c).
import socrates.Multiversioning;

aspectdef Autotuner
  input kernels end

  select file end
  apply
    exec addInclude("margot.h");
  end

  select function{name == "main"} end
  apply
    insert at_begin %{margot_init();}%;
  end

  for (var kernel of kernels) {
    select function.call{name == kernel.wrapper} end
    apply
      if ($function.name == kernel.wrapper)
        continue;
      if ($function.name.startsWith(kernel.name))
        continue;
      insert before $call %{margot_update(&[[kernel.versionVar]], &[[kernel.threadsVar]]);}%;
      insert before $call %{margot_start_monitors();}%;
      insert after  $call %{margot_stop_monitors();}%;
    end
  }
end
)LARA";

}  // namespace

const std::string& multiversioning_aspect() {
  static const std::string kSource = kMultiversioningLara;
  return kSource;
}

const std::string& autotuner_aspect() {
  static const std::string kSource = kAutotunerLara;
  return kSource;
}

std::size_t lara_logical_loc(const std::string& source) {
  std::size_t loc = 0;
  bool in_block_comment = false;
  for (const std::string& raw_line : split(source, '\n')) {
    std::string line = trim(raw_line);
    if (line.empty()) continue;
    if (in_block_comment) {
      if (contains(line, "*/")) in_block_comment = false;
      continue;
    }
    if (starts_with(line, "//")) continue;
    if (starts_with(line, "/*")) {
      if (!contains(line, "*/")) in_block_comment = true;
      continue;
    }
    if (line == "{" || line == "}" || line == "end" || line == "}%;") continue;
    ++loc;
  }
  return loc;
}

std::size_t strategy_logical_loc() {
  static const std::size_t kLoc = lara_logical_loc(multiversioning_aspect()) +
                                  lara_logical_loc(autotuner_aspect());
  return kLoc;
}

}  // namespace socrates::weaver
