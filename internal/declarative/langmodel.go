package declarative

import (
	"time"

	"repro/internal/core"
	"repro/internal/sqldb"
)

// prepLM builds the preprocessing chain of the language modeling predicate
// (Appendix B.3.1): derived relations (tf, dl, pml, pavg, freq, risk, cfcs,
// pm) ending in BASE_PM and BASE_SUMCOMPMBASE.
func prepLM(records []core.Record, cfg core.Config) (*base, error) {
	b, err := multisetPrep(records, cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	stmts := []string{
		"CREATE TABLE base_tf (tid INT, token VARCHAR(16), tf INT)",
		`INSERT INTO base_tf (tid, token, tf)
		 SELECT T.tid, T.token, COUNT(*) FROM base_tokens T GROUP BY T.tid, T.token`,
		"CREATE TABLE base_dl (tid INT, dl INT)",
		`INSERT INTO base_dl (tid, dl)
		 SELECT T.tid, COUNT(*) FROM base_tokens T GROUP BY T.tid`,
		"CREATE TABLE base_pml (tid INT, token VARCHAR(16), pml DOUBLE)",
		`INSERT INTO base_pml (tid, token, pml)
		 SELECT T.tid, T.token, T.tf / D.dl FROM base_tf T, base_dl D WHERE T.tid = D.tid`,
		"CREATE TABLE base_pavg (token VARCHAR(16), pavg DOUBLE)",
		`INSERT INTO base_pavg (token, pavg)
		 SELECT P.token, AVG(P.pml) FROM base_pml P GROUP BY P.token`,
		"CREATE TABLE base_freq (tid INT, token VARCHAR(16), freq DOUBLE)",
		`INSERT INTO base_freq (tid, token, freq)
		 SELECT T.tid, T.token, P.pavg * D.dl
		 FROM base_tf T, base_pavg P, base_dl D
		 WHERE T.token = P.token AND T.tid = D.tid`,
		"CREATE TABLE base_risk (tid INT, token VARCHAR(16), risk DOUBLE)",
		`INSERT INTO base_risk (tid, token, risk)
		 SELECT T.tid, T.token, (1.0 / (1.0 + Q.freq)) * POWER(Q.freq / (1.0 + Q.freq), T.tf)
		 FROM base_tf T, base_freq Q
		 WHERE T.tid = Q.tid AND T.token = Q.token`,
		"CREATE TABLE base_tsize (size INT)",
		"INSERT INTO base_tsize (size) SELECT COUNT(*) FROM base_tokens",
		"CREATE TABLE base_cfcs (token VARCHAR(16), cfcs DOUBLE)",
		`INSERT INTO base_cfcs (token, cfcs)
		 SELECT T.token, COUNT(*) / S.size FROM base_tokens T, base_tsize S
		 GROUP BY T.token, S.size`,
		"CREATE TABLE base_pm (tid INT, token VARCHAR(16), pm DOUBLE, cfcs DOUBLE)",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	// pm is clamped just below 1 (LEAST) so LOG(1−pm) stays finite for
	// degenerate always-alone tokens, matching weights.LM's clamp.
	err = b.exec(`
		INSERT INTO base_pm (tid, token, pm, cfcs)
		SELECT T.tid, T.token,
		       LEAST(POWER(M.pml, 1.0 - R.risk) * POWER(A.pavg, R.risk), ?),
		       C.cfcs
		FROM base_tf T, base_risk R, base_pml M, base_pavg A, base_cfcs C
		WHERE T.tid = R.tid AND T.token = R.token
		  AND T.tid = M.tid AND T.token = M.token
		  AND T.token = A.token AND T.token = C.token`,
		sqldb.Float(1-1e-12))
	if err != nil {
		return nil, err
	}
	stmts = []string{
		"CREATE TABLE base_sumcompm (tid INT, sumcompm DOUBLE)",
		`INSERT INTO base_sumcompm (tid, sumcompm)
		 SELECT P.tid, SUM(LOG(1.0 - P.pm)) FROM base_pm P GROUP BY P.tid`,
		"CREATE INDEX bpm_token ON base_pm (token)",
		"CREATE INDEX bsc_tid ON base_sumcompm (tid)",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	b.wDur = time.Since(t0)
	return b, nil
}

// selectLM runs the Figure 4.4 scoring query: the join term over shared
// tokens plus the stored Σ log(1−pm) per record.
func (b *base) selectLM(query string) ([]core.Match, error) {
	if err := b.setQuery(query, b.cfg.Q); err != nil {
		return nil, err
	}
	rows, err := b.db.Query(`
		SELECT B1.tid, EXP(B1.score + B2.sumcompm) AS score
		FROM (SELECT P1.tid AS tid,
		             SUM(LOG(P1.pm)) - SUM(LOG(1.0 - P1.pm)) - SUM(LOG(P1.cfcs)) AS score
		      FROM base_pm P1, query_tokens T2
		      WHERE P1.token = T2.token
		      GROUP BY P1.tid) B1,
		     base_sumcompm B2
		WHERE B1.tid = B2.tid`)
	if err != nil {
		return nil, err
	}
	return matches(rows), nil
}

// prepHMM builds the weight table of the two-state HMM predicate (Appendix
// B.3.2 / Figure 4.5): per-(record, token) weights 1 + a1·pml/(a0·ptge),
// combined as EXP(SUM(LOG(weight))) at query time.
func prepHMM(records []core.Record, cfg core.Config) (*base, error) {
	b, err := multisetPrep(records, cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	stmts := []string{
		"CREATE TABLE base_tf (tid INT, token VARCHAR(16), tf INT)",
		`INSERT INTO base_tf (tid, token, tf)
		 SELECT T.tid, T.token, COUNT(*) FROM base_tokens T GROUP BY T.tid, T.token`,
		"CREATE TABLE base_dl (tid INT, dl INT)",
		`INSERT INTO base_dl (tid, dl)
		 SELECT T.tid, COUNT(*) FROM base_tokens T GROUP BY T.tid`,
		"CREATE TABLE base_pml (tid INT, token VARCHAR(16), pml DOUBLE)",
		`INSERT INTO base_pml (tid, token, pml)
		 SELECT T.tid, T.token, T.tf / D.dl FROM base_tf T, base_dl D WHERE T.tid = D.tid`,
		"CREATE TABLE base_sumdl (sdl INT)",
		"INSERT INTO base_sumdl (sdl) SELECT SUM(dl) FROM base_dl",
		"CREATE TABLE base_ptge (token VARCHAR(16), ptge DOUBLE)",
		`INSERT INTO base_ptge (token, ptge)
		 SELECT T.token, SUM(T.tf) / D.sdl FROM base_tf T, base_sumdl D
		 GROUP BY T.token, D.sdl`,
		"CREATE TABLE base_weights (tid INT, token VARCHAR(16), weight DOUBLE)",
	}
	for _, s := range stmts {
		if err := b.exec(s); err != nil {
			return nil, err
		}
	}
	a0 := cfg.HMMA0
	err = b.exec(`
		INSERT INTO base_weights (tid, token, weight)
		SELECT M.tid, M.token, 1 + (? * M.pml) / (? * P.ptge)
		FROM base_ptge P, base_pml M
		WHERE P.token = M.token`,
		sqldb.Float(1-a0), sqldb.Float(a0))
	if err != nil {
		return nil, err
	}
	if err := b.exec("CREATE INDEX bw_token ON base_weights (token)"); err != nil {
		return nil, err
	}
	b.wDur = time.Since(t0)
	return b, nil
}

// selectHMM runs the Figure 4.5 scoring query.
func (b *base) selectHMM(query string) ([]core.Match, error) {
	if err := b.setQuery(query, b.cfg.Q); err != nil {
		return nil, err
	}
	rows, err := b.db.Query(`
		SELECT W1.tid, EXP(SUM(LOG(W1.weight))) AS score
		FROM base_weights W1, query_tokens T2
		WHERE W1.token = T2.token
		GROUP BY W1.tid`)
	if err != nil {
		return nil, err
	}
	return matches(rows), nil
}
