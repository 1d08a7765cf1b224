// mocha-cli is the interactive SQL client for a running QPC (the
// stand-alone application client of section 3.1).
//
// Usage:
//
//	mocha-cli -qpc localhost:7700 -e "SELECT time FROM Rasters LIMIT 5"
//	mocha-cli -qpc localhost:7700 -verify Perimeter   # audit a class
//	mocha-cli -qpc localhost:7700 releases list       # release history, all classes
//	mocha-cli -qpc localhost:7700 releases show Clip  # one class: tag, digest, caps, markers
//	mocha-cli -qpc localhost:7700 rollouts            # rollout history with abort evidence
//	mocha-cli -qpc localhost:7700 verify Perimeter    # same audit as -verify, verb form
//	mocha-cli -qpc localhost:7700            # REPL on stdin
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mocha/pkg/mocha"
)

func main() {
	addr := flag.String("qpc", "localhost:7700", "QPC address")
	exec := flag.String("e", "", "execute one statement and exit")
	verify := flag.String("verify", "", "run the static verifier on a repository class and print the audit report")
	showStats := flag.Bool("stats", true, "print execution statistics after each query")
	flag.Parse()

	client, err := mocha.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	if *verify != "" {
		if err := runQuery(client, "VERIFY "+*verify, false); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Positional release verbs map onto the QPC's SHOW statements.
	if args := flag.Args(); len(args) > 0 {
		sql, err := releaseVerb(args)
		if err != nil {
			log.Fatal(err)
		}
		if err := runQuery(client, sql, false); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *exec != "" {
		if err := runQuery(client, *exec, *showStats); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Println("mocha-cli: connected to", *addr, "(end statements with ';', \\q to quit)")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("mocha> ")
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == `\q` || trimmed == "quit" || trimmed == "exit" {
			return
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			sql := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
			buf.Reset()
			if sql != "" {
				if err := runQuery(client, sql, *showStats); err != nil {
					fmt.Println("error:", err)
				}
			}
			fmt.Print("mocha> ")
			continue
		}
		fmt.Print("    -> ")
	}
}

// releaseVerb translates the positional release/rollout verbs to SQL.
func releaseVerb(args []string) (string, error) {
	switch args[0] {
	case "releases":
		if len(args) == 2 && args[1] == "list" {
			return "SHOW RELEASES", nil
		}
		if len(args) == 3 && args[1] == "show" {
			return "SHOW RELEASES " + args[2], nil
		}
		return "", fmt.Errorf("usage: mocha-cli releases list | releases show <class>")
	case "rollouts":
		if len(args) == 1 {
			return "SHOW ROLLOUTS", nil
		}
		return "", fmt.Errorf("usage: mocha-cli rollouts")
	case "verify":
		if len(args) == 2 {
			return "VERIFY " + args[1], nil
		}
		return "", fmt.Errorf("usage: mocha-cli verify <class>")
	}
	return "", fmt.Errorf("unknown command %q (want releases, rollouts or verify)", args[0])
}

func runQuery(client *mocha.Client, sql string, showStats bool) error {
	rows, err := client.Query(sql)
	if err != nil {
		return err
	}
	header := make([]string, rows.Schema.Arity())
	for i, c := range rows.Schema.Columns {
		header[i] = c.Name
	}
	fmt.Println(strings.Join(header, " | "))
	var n int
	for {
		row, err := rows.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Println(strings.Join(cells, " | "))
		n++
	}
	fmt.Printf("(%d rows)\n", n)
	if showStats {
		if s, err := rows.Stats(); err == nil {
			fmt.Print(statsTrailer(s))
		}
	}
	return nil
}

// statsTrailer renders the line printed after a query's rows. Text
// verbs (EXPLAIN, DESCRIBE, SHOW ..., VERIFY) execute nothing and answer
// with zero stats; they get no trailer.
func statsTrailer(s *mocha.QueryStats) string {
	if *s == (mocha.QueryStats{}) {
		return ""
	}
	return fmt.Sprintf("time %.1fms (db %.1f cpu %.1f net %.1f misc %.1f) | moved %d bytes | CVRF %.6f | shipped %d classes\n",
		s.TotalMS, s.DBMS, s.CPUMS, s.NetMS, s.MiscMS, s.CVDT, s.CVRF(), s.CodeClassesShipped)
}
